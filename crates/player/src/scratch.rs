//! Session scratch: pooled log-vector capacity (DESIGN.md §15).
//!
//! A [`crate::log::SessionLog`] accumulates four event vectors whose
//! growth reallocations are pure overhead when one thread runs thousands
//! of log sessions back to back — every session re-grows the same
//! few-hundred-entry vectors from zero. A session that keeps only its
//! digest has no vectors to pool. A [`SessionScratch`] keeps that
//! capacity alive across sessions: donate it to
//! [`crate::session::Session::run_with_scratch`], summarize the returned
//! log, then hand the log back to [`SessionScratch::reclaim`]. The
//! vectors are cleared between sessions, so logs are byte-identical to
//! the unpooled path — only the allocator traffic changes.

use crate::log::{BufferSample, PlaylistFetchEvent, SelectionEvent, SessionLog, TransferEvent};

/// Reusable log-vector capacity for one thread of log sessions.
///
/// Only the four append-only event vectors are pooled; the rare `stalls`
/// rows stay session-owned.
#[derive(Debug, Default)]
pub struct SessionScratch {
    pub(crate) selections: Vec<SelectionEvent>,
    pub(crate) transfers: Vec<TransferEvent>,
    pub(crate) buffer_samples: Vec<BufferSample>,
    pub(crate) playlist_fetches: Vec<PlaylistFetchEvent>,
}

impl SessionScratch {
    /// An empty scratch (no capacity yet; it accrues over the first
    /// session).
    pub fn new() -> SessionScratch {
        SessionScratch::default()
    }

    /// Takes a finished log's event vectors back into the pool, clearing
    /// them but keeping their capacity for the next session.
    pub fn reclaim(&mut self, log: SessionLog) {
        self.selections = log.selections;
        self.selections.clear();
        self.transfers = log.transfers;
        self.transfers.clear();
        self.buffer_samples = log.buffer_samples;
        self.buffer_samples.clear();
        self.playlist_fetches = log.playlist_fetches;
        self.playlist_fetches.clear();
    }

    /// Total pooled capacity in bytes across the four vectors — the
    /// steady-state per-session log footprint a worker holds on to.
    pub fn pooled_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * core::mem::size_of::<T>()) as u64
        }
        bytes(&self.selections)
            + bytes(&self.transfers)
            + bytes(&self.buffer_samples)
            + bytes(&self.playlist_fetches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_keeps_capacity_and_clears_contents() {
        let mut scratch = SessionScratch::new();
        let mut log = SessionLog::default();
        log.buffer_samples.reserve(64);
        let cap = log.buffer_samples.capacity();
        scratch.reclaim(log);
        assert!(scratch.buffer_samples.is_empty());
        assert_eq!(scratch.buffer_samples.capacity(), cap);
        assert!(scratch.pooled_bytes() > 0);
    }

    #[test]
    fn reclaim_empties_all_four_pooled_vectors() {
        use abr_event::time::{Duration, Instant};
        let mut scratch = SessionScratch::new();
        assert_eq!(scratch.pooled_bytes(), 0);
        let mut log = SessionLog::default();
        log.buffer_samples.push(BufferSample {
            at: Instant::ZERO,
            audio: Duration::ZERO,
            video: Duration::ZERO,
        });
        log.selections.reserve(3);
        log.transfers.reserve(3);
        log.playlist_fetches.reserve(3);
        scratch.reclaim(log);
        assert!(scratch.selections.is_empty() && scratch.selections.capacity() >= 3);
        assert!(scratch.transfers.is_empty() && scratch.transfers.capacity() >= 3);
        assert!(scratch.buffer_samples.is_empty());
        assert!(scratch.playlist_fetches.is_empty() && scratch.playlist_fetches.capacity() >= 3);
    }
}
