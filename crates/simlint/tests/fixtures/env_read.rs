// Cross-process byte-identity forbids environment reads in sim code:
// two workers with different environments must produce identical
// RunRecords.
pub fn verbose() -> bool {
    std::env::var("SPIDER_VERBOSE").is_ok()
}

pub fn manifest_dir() -> &'static str {
    env!("CARGO_MANIFEST_DIR")
}

pub fn maybe() -> Option<&'static str> {
    option_env!("SPIDER_PROFILE")
}
