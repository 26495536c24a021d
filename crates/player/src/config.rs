//! Player configuration.

use abr_event::time::Duration;

/// How the audio and video download pipelines are coupled (§3.4, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Chunk-level synchronization: a media type pauses fetching while it
    /// is more than `tolerance` ahead of the other in buffered seconds
    /// (ExoPlayer-style; the §4.2 recommendation).
    ChunkLevel {
        /// How far one buffer may run ahead of the other.
        tolerance: Duration,
    },
    /// Fully independent pipelines: each media type fills its own buffer to
    /// the target with no regard for the other (dash.js-style; produces the
    /// Fig 5(b) imbalance).
    Independent,
}

/// Static player parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayerConfig {
    /// Playback starts when *both* buffers reach this level.
    pub startup_threshold: Duration,
    /// Playback resumes after a stall when both buffers reach this level.
    pub resume_threshold: Duration,
    /// A media type stops fetching when its buffer exceeds this target.
    pub max_buffer: Duration,
    /// Pipeline coupling.
    pub sync: SyncMode,
}

impl PlayerConfig {
    /// Defaults modeled on common player settings: start after one 4-s
    /// chunk per media, resume likewise, keep up to 30 s buffered,
    /// chunk-level sync with one-chunk tolerance.
    pub fn default_chunked(chunk_duration: Duration) -> PlayerConfig {
        PlayerConfig {
            startup_threshold: chunk_duration,
            resume_threshold: chunk_duration,
            max_buffer: Duration::from_secs(30),
            sync: SyncMode::ChunkLevel {
                tolerance: chunk_duration,
            },
        }
    }

    /// dash.js-style configuration: independent pipelines (§3.4).
    pub fn dashjs_style(chunk_duration: Duration) -> PlayerConfig {
        PlayerConfig {
            sync: SyncMode::Independent,
            ..PlayerConfig::default_chunked(chunk_duration)
        }
    }

    /// Validates invariants; called by the session constructor.
    pub fn validate(&self) {
        assert!(!self.startup_threshold.is_zero(), "zero startup threshold");
        assert!(!self.resume_threshold.is_zero(), "zero resume threshold");
        assert!(
            self.max_buffer >= self.startup_threshold,
            "max buffer below startup threshold"
        );
        if let SyncMode::ChunkLevel { tolerance } = self.sync {
            assert!(
                !tolerance.is_zero(),
                "zero sync tolerance deadlocks the pipelines"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        PlayerConfig::default_chunked(Duration::from_secs(4)).validate();
        PlayerConfig::dashjs_style(Duration::from_secs(4)).validate();
    }

    #[test]
    fn dashjs_style_is_independent() {
        let c = PlayerConfig::dashjs_style(Duration::from_secs(4));
        assert_eq!(c.sync, SyncMode::Independent);
    }

    #[test]
    fn max_buffer_may_equal_the_startup_threshold() {
        PlayerConfig {
            max_buffer: Duration::from_secs(4),
            ..PlayerConfig::default_chunked(Duration::from_secs(4))
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero startup threshold")]
    fn rejects_zero_startup_threshold() {
        PlayerConfig {
            startup_threshold: Duration::ZERO,
            ..PlayerConfig::default_chunked(Duration::from_secs(4))
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero resume threshold")]
    fn rejects_zero_resume_threshold() {
        PlayerConfig {
            resume_threshold: Duration::ZERO,
            ..PlayerConfig::default_chunked(Duration::from_secs(4))
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max buffer below startup")]
    fn rejects_inconsistent_thresholds() {
        PlayerConfig {
            startup_threshold: Duration::from_secs(60),
            resume_threshold: Duration::from_secs(4),
            max_buffer: Duration::from_secs(30),
            sync: SyncMode::Independent,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero sync tolerance")]
    fn rejects_zero_tolerance() {
        PlayerConfig {
            sync: SyncMode::ChunkLevel {
                tolerance: Duration::ZERO,
            },
            ..PlayerConfig::default_chunked(Duration::from_secs(4))
        }
        .validate();
    }
}
