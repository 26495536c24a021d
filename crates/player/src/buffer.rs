//! Per-media chunk buffers.
//!
//! A buffer holds downloaded-but-unplayed chunks for one media type and is
//! measured in *seconds of content* — the unit the paper's balance argument
//! (§4.2) uses. Playback drains both media buffers in lockstep.

use abr_event::time::Duration;
use abr_media::track::{MediaType, TrackId};
use std::collections::VecDeque;

/// One buffered chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedChunk {
    /// Playback-order chunk index.
    pub index: usize,
    /// The track the chunk was taken from.
    pub track: TrackId,
    /// Chunk duration.
    pub duration: Duration,
}

/// A FIFO of buffered chunks for one media type, with partial playout of
/// the head chunk.
///
/// The level is O(1): `total` is the running sum of the queued chunk
/// durations, kept exact by `push`, `drain` and `flush_to` (durations are
/// integer microseconds).
#[derive(Debug, Clone)]
pub struct ChunkBuffer {
    media: MediaType,
    queue: VecDeque<BufferedChunk>,
    /// Sum of the queued chunks' durations.
    total: Duration,
    /// How much of the head chunk has already been played.
    head_played: Duration,
    /// Index of the next chunk playback expects (for contiguity checks).
    next_play_index: usize,
}

impl ChunkBuffer {
    /// An empty buffer for `media`.
    pub fn new(media: MediaType) -> ChunkBuffer {
        ChunkBuffer {
            media,
            queue: VecDeque::new(),
            total: Duration::ZERO,
            head_played: Duration::ZERO,
            next_play_index: 0,
        }
    }

    /// The media type this buffer holds.
    pub fn media(&self) -> MediaType {
        self.media
    }

    /// Appends a chunk. Panics if the chunk is for the wrong media type or
    /// breaks playback-order contiguity.
    pub fn push(&mut self, chunk: BufferedChunk) {
        assert_eq!(chunk.track.media, self.media, "chunk of wrong media type");
        let expected = self
            .queue
            .back()
            .map_or(self.next_play_index, |c| c.index + 1);
        assert_eq!(
            chunk.index, expected,
            "non-contiguous chunk {} (expected {expected})",
            chunk.index
        );
        assert!(!chunk.duration.is_zero(), "zero-duration chunk");
        self.total += chunk.duration;
        self.queue.push_back(chunk);
    }

    /// Buffered seconds of content remaining to play.
    pub fn level(&self) -> Duration {
        self.total - self.head_played
    }

    /// True when nothing is left to play.
    pub fn is_empty(&self) -> bool {
        self.level().is_zero()
    }

    /// Index of the next chunk a downloader should append.
    pub fn next_download_index(&self) -> usize {
        self.queue
            .back()
            .map_or(self.next_play_index, |c| c.index + 1)
    }

    /// Consumes `dt` of content. Panics if `dt` exceeds the buffered level
    /// (the playback engine is responsible for clamping at boundaries).
    pub fn drain(&mut self, dt: Duration) {
        let level = self.level();
        assert!(dt <= level, "drain {dt} exceeds level {level}");
        let mut left = dt;
        while !left.is_zero() {
            let head = self.queue.front().expect("level guaranteed content");
            let head_left = head.duration - self.head_played;
            if left < head_left {
                self.head_played += left;
                left = Duration::ZERO;
            } else {
                left -= head_left;
                self.next_play_index = head.index + 1;
                self.total -= head.duration;
                self.queue.pop_front();
                self.head_played = Duration::ZERO;
            }
        }
    }

    /// The buffered chunks in playback order (head first).
    pub fn chunks(&self) -> impl Iterator<Item = &BufferedChunk> {
        self.queue.iter()
    }

    /// Discards everything and repositions playback/download at `index`
    /// (a seek). The next chunk pushed — and played — is `index`.
    pub fn flush_to(&mut self, index: usize) {
        self.queue.clear();
        self.total = Duration::ZERO;
        self.head_played = Duration::ZERO;
        self.next_play_index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(index: usize, track: usize, secs: u64) -> BufferedChunk {
        BufferedChunk {
            index,
            track: TrackId::video(track),
            duration: Duration::from_secs(secs),
        }
    }

    #[test]
    fn level_accumulates_and_drains() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        assert!(b.is_empty());
        b.push(chunk(0, 0, 4));
        b.push(chunk(1, 2, 4));
        assert_eq!(b.level(), Duration::from_secs(8));
        b.drain(Duration::from_secs(3));
        assert_eq!(b.level(), Duration::from_secs(5));
        b.drain(Duration::from_secs(5));
        assert!(b.is_empty());
    }

    #[test]
    fn partial_head_tracking() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        b.push(chunk(0, 0, 4));
        b.drain(Duration::from_millis(1500));
        assert_eq!(b.level(), Duration::from_millis(2500));
        // Crossing the chunk boundary pops it and advances the index.
        b.push(chunk(1, 1, 4));
        b.drain(Duration::from_secs(3));
        assert_eq!(b.level(), Duration::from_millis(3500));
        assert_eq!(b.next_download_index(), 2);
    }

    #[test]
    fn next_download_index_follows_play_position() {
        let mut b = ChunkBuffer::new(MediaType::Audio);
        assert_eq!(b.next_download_index(), 0);
        b.push(BufferedChunk {
            index: 0,
            track: TrackId::audio(0),
            duration: Duration::from_secs(4),
        });
        assert_eq!(b.next_download_index(), 1);
        b.drain(Duration::from_secs(4));
        // Fully played: downloads continue from where the queue left off.
        assert_eq!(b.next_download_index(), 1);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn rejects_gap() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        b.push(chunk(0, 0, 4));
        b.push(chunk(2, 0, 4));
    }

    #[test]
    #[should_panic(expected = "wrong media type")]
    fn rejects_wrong_media() {
        let mut b = ChunkBuffer::new(MediaType::Audio);
        b.push(chunk(0, 0, 4));
    }

    #[test]
    #[should_panic(expected = "exceeds level")]
    fn overdrain_panics() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        b.push(chunk(0, 0, 4));
        b.drain(Duration::from_secs(5));
    }

    #[test]
    fn flush_to_repositions() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        b.push(chunk(0, 0, 4));
        b.push(chunk(1, 1, 4));
        b.drain(Duration::from_secs(1));
        b.flush_to(40);
        assert!(b.is_empty());
        assert_eq!(b.next_download_index(), 40);
        b.push(chunk(40, 2, 4)); // contiguity restarts at the target
        assert_eq!(b.level(), Duration::from_secs(4));
    }

    #[test]
    fn chunks_iterates_in_order() {
        let mut b = ChunkBuffer::new(MediaType::Video);
        b.push(chunk(0, 3, 4));
        b.push(chunk(1, 4, 4));
        let tracks: Vec<usize> = b.chunks().map(|c| c.track.index).collect();
        assert_eq!(tracks, vec![3, 4]);
    }
}
