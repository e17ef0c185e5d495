//! Test hooks: work the runtime already runs on its own cadence, forced at
//! a point a test picks. Not part of the API (hidden from the docs), and
//! `tests/api_surface.rs` pins every name here, so this module cannot grow
//! into a second API unnoticed.

/// Sweep the event table and prune the replay mirror now, as every
/// `COMPACT_EVERY` enqueues do.
pub fn compact_now(hs: &crate::HStreams) {
    hs.compact_now();
}

/// Flush the WAL and, if the runtime is quiescent, checkpoint and retire
/// segments now, without the appended-bytes throttle of the automatic one.
pub fn wal_checkpoint(hs: &crate::HStreams) {
    hs.wal_checkpoint();
}
