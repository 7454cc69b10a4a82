//! Housekeeping at 1 Hz: spatial upkeep of the fleet, heard-set pruning,
//! and AP idle expiry.

use sim_engine::time::Duration;

use super::{ClientNode, Event, Sched, World};

/// How long an unrefreshed scan entry stays in the heard set. Must
/// exceed every consumer's freshness window (`select_aps`: 2 s,
/// `reconsider`: 3 s) for the heard-set walk to see exactly the fresh
/// entries a full scan-table walk would.
const HEARD_TTL: Duration = Duration::from_secs(5);

impl World {
    pub(super) fn maintenance(&mut self, sched: &mut Sched) {
        let now = sched.now;
        // Spatial upkeep: move every client's cell membership and sample
        // how many APs each 400 m hearing disc covers — grid range
        // queries, not scans over `aps`. The mover index then feeds back
        // as cell occupancy: how many fleet members (self included) share
        // each client's cell, which scales the uplink contention bound in
        // `client_send`. Occupancy is 1 whenever a client is alone in its
        // cell.
        for c in 0..self.clients.len() {
            let pos = self.client_pos(c, now);
            if self.mover_cells.update(c, pos) {
                self.clients[c].counters.cell_crossings += 1;
            }
            let inrange = self.grid.count_in_disc(pos, 400.0) as u32;
            let node = &mut self.clients[c];
            node.peak_inrange_aps = node.peak_inrange_aps.max(inrange);
        }
        for c in 0..self.clients.len() {
            let occupancy = self
                .mover_cells
                .cell_of(c)
                .map_or(1, |key| self.mover_cells.movers_in(key).len())
                .max(1) as u32;
            self.clients[c].cell_occupancy = occupancy;
        }
        for ClientNode { scan, heard, .. } in &mut self.clients {
            heard.retain(|slot| {
                scan[slot].is_some_and(|c| now.saturating_since(c.last_heard) <= HEARD_TTL)
            });
        }
        for ap in 0..self.aps.len() {
            // An AP with no stations has nothing to expire: `expire_idle`
            // over an empty table is a no-op, so skipping it cannot change
            // event order. This turns the 1 Hz full-fleet walk into
            // O(associated APs) of real work on metro-scale worlds.
            if self.aps[ap].mac.station_count() == 0 {
                continue;
            }
            self.with_ap_actions(ap, sched, |mac, _, out| {
                out.append(&mut mac.expire_idle(now))
            });
        }
        sched.after(Duration::from_secs(1), Event::Maintenance);
    }
}
