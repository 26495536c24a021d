//! Per-media chunk buffers.
//!
//! A buffer holds downloaded-but-unplayed chunks for one media type and is
//! measured in *seconds of content* — the unit the paper's balance argument
//! (§4.2) uses. Playback drains both media buffers in lockstep.

use abr_event::time::Duration;
use abr_media::track::{MediaType, TrackId};
use std::ops::Range;

/// A FIFO of buffered chunks for one media type, with partial playout of
/// the head chunk.
///
/// Every chunk of a session has the same duration and playback only ever
/// needs the queue's length, so the queue is kept as counters: the index
/// of the next chunk to play, how many chunks follow it contiguously, and
/// how much of the head chunk has played. The level, `drain` and the next
/// download index are all O(1) arithmetic on integer microseconds, and the
/// buffer owns no heap memory.
#[derive(Debug, Clone)]
pub struct ChunkBuffer {
    media: MediaType,
    /// The duration of every chunk.
    chunk_duration: Duration,
    /// Index of the next chunk playback expects: the head chunk when the
    /// queue is non-empty.
    next_play_index: usize,
    /// Chunks queued, starting at `next_play_index`.
    queued: usize,
    /// How much of the head chunk has already been played.
    head_played: Duration,
}

impl ChunkBuffer {
    /// An empty buffer for `media` whose chunks all last `chunk_duration`.
    /// Panics on a zero duration.
    pub fn new(media: MediaType, chunk_duration: Duration) -> ChunkBuffer {
        assert!(!chunk_duration.is_zero(), "zero-duration chunk");
        ChunkBuffer {
            media,
            chunk_duration,
            next_play_index: 0,
            queued: 0,
            head_played: Duration::ZERO,
        }
    }

    /// The media type this buffer holds.
    pub fn media(&self) -> MediaType {
        self.media
    }

    /// Appends chunk `index` of `track`. Panics if the track is of the
    /// wrong media type or the chunk breaks playback-order contiguity.
    pub fn push(&mut self, track: TrackId, index: usize) {
        assert_eq!(track.media, self.media, "chunk of wrong media type");
        let expected = self.next_download_index();
        assert_eq!(
            index, expected,
            "non-contiguous chunk {index} (expected {expected})"
        );
        self.queued += 1;
    }

    /// Buffered seconds of content remaining to play.
    pub fn level(&self) -> Duration {
        self.chunk_duration * self.queued as u64 - self.head_played
    }

    /// True when nothing is left to play.
    pub fn is_empty(&self) -> bool {
        self.level().is_zero()
    }

    /// Index of the next chunk a downloader should append.
    pub fn next_download_index(&self) -> usize {
        self.next_play_index + self.queued
    }

    /// Consumes `dt` of content. Panics if `dt` exceeds the buffered level
    /// (the playback engine is responsible for clamping at boundaries).
    /// A chunk played to its last microsecond leaves the queue.
    pub fn drain(&mut self, dt: Duration) {
        let level = self.level();
        assert!(dt <= level, "drain {dt} exceeds level {level}");
        let played = (self.head_played + dt).as_micros();
        let chunk = self.chunk_duration.as_micros();
        let finished = (played / chunk) as usize;
        self.next_play_index += finished;
        self.queued -= finished;
        self.head_played = Duration::from_micros(played % chunk);
    }

    /// The indices of the queued chunks in playback order (head first).
    pub fn chunks(&self) -> Range<usize> {
        self.next_play_index..self.next_download_index()
    }

    /// Discards everything and repositions playback/download at `index`
    /// (a seek). The next chunk pushed — and played — is `index`.
    pub fn flush_to(&mut self, index: usize) {
        self.queued = 0;
        self.head_played = Duration::ZERO;
        self.next_play_index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: Duration = Duration::from_secs(4);

    #[test]
    fn level_accumulates_and_drains() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        assert!(b.is_empty());
        b.push(TrackId::video(0), 0);
        b.push(TrackId::video(2), 1);
        assert_eq!(b.level(), Duration::from_secs(8));
        b.drain(Duration::from_secs(3));
        assert_eq!(b.level(), Duration::from_secs(5));
        b.drain(Duration::from_secs(5));
        assert!(b.is_empty());
    }

    #[test]
    fn partial_head_tracking() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        b.push(TrackId::video(0), 0);
        b.drain(Duration::from_millis(1500));
        assert_eq!(b.level(), Duration::from_millis(2500));
        // Crossing the chunk boundary pops it and advances the index.
        b.push(TrackId::video(1), 1);
        b.drain(Duration::from_secs(3));
        assert_eq!(b.level(), Duration::from_millis(3500));
        assert_eq!(b.next_download_index(), 2);
        assert_eq!(b.chunks(), 1..2);
    }

    #[test]
    fn next_download_index_follows_play_position() {
        let mut b = ChunkBuffer::new(MediaType::Audio, CHUNK);
        assert_eq!(b.next_download_index(), 0);
        b.push(TrackId::audio(0), 0);
        assert_eq!(b.next_download_index(), 1);
        b.drain(Duration::from_secs(4));
        // Fully played: downloads continue from where the queue left off.
        assert_eq!(b.next_download_index(), 1);
        assert!(b.chunks().is_empty());
    }

    #[test]
    fn drain_across_several_chunks_lands_mid_chunk() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        for i in 0..4 {
            b.push(TrackId::video(0), i);
        }
        b.drain(Duration::from_millis(9_500));
        assert_eq!(b.chunks(), 2..4);
        assert_eq!(b.level(), Duration::from_millis(6_500));
        b.drain(Duration::ZERO);
        assert_eq!(b.level(), Duration::from_millis(6_500));
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn rejects_gap() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        b.push(TrackId::video(0), 0);
        b.push(TrackId::video(0), 2);
    }

    #[test]
    #[should_panic(expected = "wrong media type")]
    fn rejects_wrong_media() {
        let mut b = ChunkBuffer::new(MediaType::Audio, CHUNK);
        b.push(TrackId::video(0), 0);
    }

    #[test]
    #[should_panic(expected = "zero-duration chunk")]
    fn rejects_zero_chunk_duration() {
        let _ = ChunkBuffer::new(MediaType::Audio, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds level")]
    fn overdrain_panics() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        b.push(TrackId::video(0), 0);
        b.drain(Duration::from_secs(5));
    }

    #[test]
    fn flush_to_repositions() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        b.push(TrackId::video(0), 0);
        b.push(TrackId::video(1), 1);
        b.drain(Duration::from_secs(1));
        b.flush_to(40);
        assert!(b.is_empty());
        assert_eq!(b.next_download_index(), 40);
        b.push(TrackId::video(2), 40); // contiguity restarts at the target
        assert_eq!(b.level(), Duration::from_secs(4));
    }

    #[test]
    fn chunks_iterates_in_order() {
        let mut b = ChunkBuffer::new(MediaType::Video, CHUNK);
        b.push(TrackId::video(3), 0);
        b.push(TrackId::video(4), 1);
        assert_eq!(b.chunks().collect::<Vec<_>>(), vec![0, 1]);
    }
}
