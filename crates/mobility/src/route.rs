//! Vehicle routes: polylines driven at a (piecewise-constant) speed.
//!
//! The paper's outdoor experiments drove fixed loops around Amherst and
//! Boston for 30–60 minutes ("the node repeatedly following the same
//! route"), so the canonical route here is a closed loop traversed
//! repeatedly.

use sim_engine::time::Instant;

use crate::geometry::Point;

/// A polyline route, optionally closed into a loop.
#[derive(Debug, Clone)]
pub struct Route {
    points: Vec<Point>,
    /// Cumulative arc length at each vertex; `cum[0] = 0`.
    cum: Vec<f64>,
    looped: bool,
}

impl Route {
    /// A route along the given vertices. `looped` appends the implicit
    /// closing segment back to the first vertex and makes distance wrap.
    ///
    /// # Panics
    /// Panics where [`Route::try_new`] returns an error: fewer than 2
    /// vertices, or a total length that is zero or NaN.
    pub fn new(points: Vec<Point>, looped: bool) -> Route {
        Route::try_new(points, looped)
            // simlint: allow(panic-path) — documented constructor contract (see # Panics); fallible callers use Route::try_new
            .unwrap_or_else(|reason| panic!("Route::new: invalid {reason}"))
    }

    /// The fallible form of [`Route::new`]: the one place the route
    /// invariants are checked. The error names the broken invariant.
    pub fn try_new(points: Vec<Point>, looped: bool) -> Result<Route, &'static str> {
        if points.len() < 2 {
            return Err("route vertex count (need at least 2)");
        }
        let mut cum = Vec::with_capacity(points.len() + 1);
        let mut total = 0.0;
        cum.push(total);
        for w in points.windows(2) {
            total += w[0].distance(w[1]);
            cum.push(total);
        }
        if looped {
            total += points[points.len() - 1].distance(points[0]);
            cum.push(total);
        }
        if total.is_nan() || total <= 0.0 {
            return Err("route length");
        }
        Ok(Route {
            points,
            cum,
            looped,
        })
    }

    /// A straight road from `a` to `b` (driven once, then parked at `b`).
    pub fn straight(a: Point, b: Point) -> Route {
        Route::new(vec![a, b], false)
    }

    /// A rectangular city-block loop anchored at the origin.
    pub fn rectangle(width: f64, height: f64) -> Route {
        Route::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(width, 0.0),
                Point::new(width, height),
                Point::new(0.0, height),
            ],
            true,
        )
    }

    /// Total length of one traversal, m.
    pub fn length(&self) -> f64 {
        // `cum` always holds at least the leading 0.0.
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// True if the route loops.
    pub fn is_loop(&self) -> bool {
        self.looped
    }

    /// The vertices (without the implicit closing vertex).
    pub fn vertices(&self) -> &[Point] {
        &self.points
    }

    fn vertex(&self, i: usize) -> Point {
        // With `looped`, index len() refers back to vertex 0.
        if i < self.points.len() {
            self.points[i]
        } else {
            self.points[0]
        }
    }

    /// Number of segments (including the closing one when looped).
    pub fn segment_count(&self) -> usize {
        self.cum.len() - 1
    }

    /// Segment `i` as `(start, end, start_distance, length)`.
    pub fn segment(&self, i: usize) -> (Point, Point, f64, f64) {
        let a = self.vertex(i);
        let b = self.vertex(i + 1);
        (a, b, self.cum[i], self.cum[i + 1] - self.cum[i])
    }

    /// Position after driving `dist` metres from the start. Loops wrap;
    /// open routes clamp at the final vertex.
    pub fn position_at_distance(&self, dist: f64) -> Point {
        let total = self.length();
        let d = if dist > 0.0 && dist < total {
            // Both branches below return `dist` itself here: the loop's
            // `rem_euclid` and the open route's clamp.
            dist
        } else if self.looped {
            dist.rem_euclid(total)
        } else if dist >= total {
            return self.vertex(self.points.len() - 1);
        } else {
            dist.max(0.0)
        };
        // Find the segment containing d.
        let idx = match self.cum.binary_search_by(|c| c.total_cmp(&d)) {
            Ok(i) => i.min(self.cum.len() - 2),
            Err(i) => i - 1,
        };
        let (a, b, start, len) = self.segment(idx);
        if len == 0.0 {
            return a;
        }
        a.lerp(b, (d - start) / len)
    }
}

/// How a vehicle's speed evolves along its drive.
#[derive(Debug, Clone)]
pub enum SpeedProfile {
    /// Constant cruising speed, m/s.
    Constant(f64),
    /// Urban stop-and-go: cruise at `cruise` m/s, but every `stop_every`
    /// metres of road, dwell stationary for `stop_for` seconds (traffic
    /// lights, stop signs). This is what skews real encounter-duration
    /// distributions: a stop inside an AP's footprint makes a long
    /// encounter, while the cruising majority graze past.
    StopAndGo {
        /// Cruising speed, m/s.
        cruise: f64,
        /// Metres of road between stops.
        stop_every: f64,
        /// Dwell per stop, seconds.
        stop_for: f64,
    },
}

impl SpeedProfile {
    /// The one place the profile invariants are checked: speeds positive
    /// and finite, stop spacing positive, stop dwell non-negative. The
    /// error names the offending field.
    fn check(&self) -> Result<(), &'static str> {
        match *self {
            SpeedProfile::Constant(v) => {
                if !(v > 0.0 && v.is_finite()) {
                    return Err("constant speed");
                }
            }
            SpeedProfile::StopAndGo {
                cruise,
                stop_every,
                stop_for,
            } => {
                if !(cruise > 0.0 && cruise.is_finite()) {
                    return Err("cruise speed");
                }
                if stop_every.is_nan() || stop_every <= 0.0 {
                    return Err("stop spacing");
                }
                if stop_for.is_nan() || stop_for < 0.0 {
                    return Err("stop dwell");
                }
            }
        }
        Ok(())
    }

    /// Distance covered after `t` seconds of driving.
    pub fn distance_after(&self, t: f64) -> f64 {
        match *self {
            SpeedProfile::Constant(v) => v * t,
            SpeedProfile::StopAndGo {
                cruise,
                stop_every,
                stop_for,
            } => {
                // One cycle = drive `stop_every` metres, then dwell.
                let cycle_t = stop_every / cruise + stop_for;
                let cycles = (t / cycle_t).floor();
                let rem = t - cycles * cycle_t;
                let within = (rem * cruise).min(stop_every);
                cycles * stop_every + within
            }
        }
    }

    /// Seconds of driving needed to cover `d` metres (the inverse of
    /// [`SpeedProfile::distance_after`]; stops count toward the time).
    pub fn time_to_distance(&self, d: f64) -> f64 {
        match *self {
            SpeedProfile::Constant(v) => d / v,
            SpeedProfile::StopAndGo {
                cruise,
                stop_every,
                stop_for,
            } => {
                let cycle_t = stop_every / cruise + stop_for;
                let cycles = (d / stop_every).floor();
                let rem = d - cycles * stop_every;
                cycles * cycle_t + rem / cruise
            }
        }
    }

    /// The top speed, m/s: the constant speed, or the cruise speed of a
    /// stop-and-go profile.
    pub fn max_speed(&self) -> f64 {
        match *self {
            SpeedProfile::Constant(v) => v,
            SpeedProfile::StopAndGo { cruise, .. } => cruise,
        }
    }

    /// Long-run average speed, m/s.
    pub fn mean_speed(&self) -> f64 {
        match *self {
            SpeedProfile::Constant(v) => v,
            SpeedProfile::StopAndGo {
                cruise,
                stop_every,
                stop_for,
            } => stop_every / (stop_every / cruise + stop_for),
        }
    }
}

/// A vehicle driving a route under a speed profile.
#[derive(Debug, Clone)]
pub struct Vehicle {
    route: Route,
    profile: SpeedProfile,
    /// When the drive started.
    departed: Instant,
}

impl Vehicle {
    /// A vehicle that starts driving `route` at a constant `speed` m/s at
    /// `departed`.
    ///
    /// # Panics
    /// Panics on a speed that is not positive and finite.
    pub fn new(route: Route, speed: f64, departed: Instant) -> Vehicle {
        Vehicle::with_profile(route, SpeedProfile::Constant(speed), departed)
    }

    /// A vehicle with an arbitrary speed profile.
    ///
    /// # Panics
    /// Panics on a speed that is not positive and finite, a stop spacing
    /// that is not positive, or a negative stop dwell; fallible callers
    /// use [`Vehicle::try_with_profile`].
    pub fn with_profile(route: Route, profile: SpeedProfile, departed: Instant) -> Vehicle {
        Vehicle::try_with_profile(route, profile, departed)
            // simlint: allow(panic-path) — documented constructor contract (see # Panics); fallible callers use Vehicle::try_with_profile
            .unwrap_or_else(|reason| panic!("Vehicle: bad speed profile: invalid {reason}"))
    }

    /// The fallible form of [`Vehicle::with_profile`].
    pub fn try_with_profile(
        route: Route,
        profile: SpeedProfile,
        departed: Instant,
    ) -> Result<Vehicle, &'static str> {
        profile.check()?;
        Ok(Vehicle {
            route,
            profile,
            departed,
        })
    }

    /// The route being driven.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The speed profile.
    pub fn profile(&self) -> &SpeedProfile {
        &self.profile
    }

    /// When the drive started.
    pub fn departed(&self) -> Instant {
        self.departed
    }

    /// Long-run average speed, m/s (equals the constant speed for
    /// [`SpeedProfile::Constant`]).
    pub fn speed(&self) -> f64 {
        self.profile.mean_speed()
    }

    /// The top speed, m/s (see [`SpeedProfile::max_speed`]).
    pub fn max_speed(&self) -> f64 {
        self.profile.max_speed()
    }

    /// Distance driven by `now`, m.
    pub fn distance_at(&self, now: Instant) -> f64 {
        self.profile
            .distance_after(now.saturating_since(self.departed).as_secs_f64())
    }

    /// The instant the vehicle reaches `d` metres along its drive.
    pub fn time_at_distance(&self, d: f64) -> Instant {
        self.departed + sim_engine::time::Duration::from_secs_f64(self.profile.time_to_distance(d))
    }

    /// Position at `now`.
    pub fn position_at(&self, now: Instant) -> Point {
        self.route.position_at_distance(self.distance_at(now))
    }

    /// The same drive shifted `by` later: identical route and profile,
    /// departure delayed. `delayed(ZERO)` is the vehicle itself — this is
    /// the per-client route offset a client fleet staggers a convoy with.
    pub fn delayed(&self, by: sim_engine::time::Duration) -> Vehicle {
        Vehicle {
            route: self.route.clone(),
            profile: self.profile.clone(),
            departed: self.departed + by,
        }
    }
}

/// Rounding slack of [`Anchor::within`], m: far above the error of the
/// few float operations between two positions, far below any hearing
/// radius.
const ANCHOR_MARGIN_M: f64 = 1.0;

/// Where a mover was at one instant and the fastest it can move: enough
/// to decide most "within `radius` of a point at a later instant"
/// questions without computing the later position.
///
/// The bound holds for a [`Vehicle`]: its route is piecewise-linear and
/// continuous, including where a loop wraps back to its first vertex and
/// where an open route clamps at its ends, and its distance along the
/// route never grows faster than [`Vehicle::max_speed`] (a stop-and-go
/// profile cruises or stands still). So its displacement over `Δt` is at
/// most the arc driven, at most `max_speed · Δt`. A fixed point has top
/// speed 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// The instant the position was taken.
    pub at: Instant,
    /// The position at `at`.
    pub pos: Point,
    /// An upper bound on the mover's speed from `at` on, m/s.
    pub max_speed: f64,
}

impl Anchor {
    /// Whether the mover is within `radius` of `target` at `now`, if the
    /// bound decides it: `Some(true)` when even the farthest it can have
    /// moved keeps it inside, `Some(false)` when even the closest it can
    /// have come leaves it outside, and `None` in the band between, where
    /// only its exact position can tell. `now` may fall on either side of
    /// `at`.
    pub fn within(&self, now: Instant, target: Point, radius: f64) -> Option<bool> {
        let d0 = self.pos.distance(target);
        let elapsed = now
            .saturating_since(self.at)
            .max(self.at.saturating_since(now))
            .as_secs_f64();
        let slack = self.max_speed * elapsed + ANCHOR_MARGIN_M;
        if d0 + slack <= radius {
            Some(true)
        } else if d0 - slack > radius {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_route_positions() {
        let r = Route::straight(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        assert_eq!(r.length(), 100.0);
        assert_eq!(r.position_at_distance(0.0), Point::new(0.0, 0.0));
        assert_eq!(r.position_at_distance(50.0), Point::new(50.0, 0.0));
        // Open route clamps at the end.
        assert_eq!(r.position_at_distance(150.0), Point::new(100.0, 0.0));
    }

    #[test]
    fn rectangle_loop_wraps() {
        let r = Route::rectangle(100.0, 50.0);
        assert_eq!(r.length(), 300.0);
        assert!(r.is_loop());
        assert_eq!(r.position_at_distance(0.0), Point::new(0.0, 0.0));
        assert_eq!(r.position_at_distance(100.0), Point::new(100.0, 0.0));
        assert_eq!(r.position_at_distance(150.0), Point::new(100.0, 50.0));
        // One full lap later, back at a known point.
        assert_eq!(
            r.position_at_distance(300.0 + 150.0),
            Point::new(100.0, 50.0)
        );
        // Closing segment: from (0,50) back to (0,0).
        assert_eq!(r.position_at_distance(275.0), Point::new(0.0, 25.0));
    }

    #[test]
    fn multi_segment_interpolation() {
        let r = Route::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
            ],
            false,
        );
        assert_eq!(r.length(), 20.0);
        assert_eq!(r.position_at_distance(15.0), Point::new(10.0, 5.0));
        assert_eq!(r.segment_count(), 2);
    }

    #[test]
    fn vehicle_kinematics() {
        let r = Route::straight(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));
        let v = Vehicle::new(r, 10.0, Instant::from_secs(5));
        assert_eq!(v.position_at(Instant::from_secs(5)), Point::new(0.0, 0.0));
        assert_eq!(
            v.position_at(Instant::from_secs(15)),
            Point::new(100.0, 0.0)
        );
        // Before departure: still at the start.
        assert_eq!(v.position_at(Instant::ZERO), Point::new(0.0, 0.0));
    }

    #[test]
    fn vehicle_laps_a_loop() {
        let r = Route::rectangle(100.0, 50.0); // 300 m lap
        let v = Vehicle::new(r, 30.0, Instant::ZERO); // 10 s lap
        let p1 = v.position_at(Instant::from_secs(3));
        let p2 = v.position_at(Instant::from_secs(13));
        assert!((p1.x - p2.x).abs() < 1e-9 && (p1.y - p2.y).abs() < 1e-9);
    }

    #[test]
    fn stop_and_go_distance_and_inverse_agree() {
        let p = SpeedProfile::StopAndGo {
            cruise: 10.0,
            stop_every: 200.0,
            stop_for: 15.0,
        };
        // One cycle: 20 s driving + 15 s stopped = 35 s per 200 m.
        assert!((p.distance_after(35.0) - 200.0).abs() < 1e-9);
        assert!((p.distance_after(20.0) - 200.0).abs() < 1e-9); // parked
        assert!((p.distance_after(30.0) - 200.0).abs() < 1e-9); // still parked
        assert!((p.distance_after(45.0) - 300.0).abs() < 1e-9);
        // Inverse round-trips at non-stop points.
        for d in [0.0, 50.0, 199.0, 201.0, 777.0] {
            let t = p.time_to_distance(d);
            assert!(
                (p.distance_after(t) - d).abs() < 1e-6,
                "round-trip failed at {d} m"
            );
        }
        // Mean speed: 200 m / 35 s ≈ 5.71 m/s.
        assert!((p.mean_speed() - 200.0 / 35.0).abs() < 1e-9);
    }

    #[test]
    fn stop_and_go_vehicle_dwells() {
        let route = Route::straight(Point::new(0.0, 0.0), Point::new(5_000.0, 0.0));
        let v = Vehicle::with_profile(
            route,
            SpeedProfile::StopAndGo {
                cruise: 10.0,
                stop_every: 100.0,
                stop_for: 10.0,
            },
            Instant::ZERO,
        );
        // After 10 s: reached the 100 m stop line; stays there until 20 s.
        assert_eq!(
            v.position_at(Instant::from_secs(12)),
            Point::new(100.0, 0.0)
        );
        assert_eq!(
            v.position_at(Instant::from_secs(19)),
            Point::new(100.0, 0.0)
        );
        assert_eq!(
            v.position_at(Instant::from_secs(25)),
            Point::new(150.0, 0.0)
        );
        // Mean speed halves (10 s driving + 10 s stopped per 100 m); the
        // top speed is the cruise.
        assert!((v.speed() - 5.0).abs() < 1e-9);
        assert_eq!(v.max_speed(), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_vertex_panics() {
        Route::new(vec![Point::ORIGIN], false);
    }

    #[test]
    #[should_panic(expected = "bad speed")]
    fn zero_speed_panics() {
        Vehicle::new(Route::rectangle(1.0, 1.0), 0.0, Instant::ZERO);
    }

    #[test]
    fn delayed_vehicle_trails_by_exactly_the_offset() {
        let r = Route::straight(Point::new(0.0, 0.0), Point::new(1_000.0, 0.0));
        let lead = Vehicle::new(r, 10.0, Instant::ZERO);
        let tail = lead.delayed(sim_engine::time::Duration::from_secs(5));
        // Zero offset is the identity.
        let same = lead.delayed(sim_engine::time::Duration::ZERO);
        let t = Instant::ZERO + sim_engine::time::Duration::from_secs(20);
        assert_eq!(same.position_at(t), lead.position_at(t));
        // Before its departure the trailer sits at the route start.
        let early = Instant::ZERO + sim_engine::time::Duration::from_secs(3);
        assert_eq!(tail.position_at(early), Point::new(0.0, 0.0));
        // Afterwards it is exactly 5 s behind the leader.
        assert_eq!(
            tail.position_at(t),
            lead.position_at(t - sim_engine::time::Duration::from_secs(5))
        );
    }
}
