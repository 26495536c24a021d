//! The shared scenario corpus: build once, `Arc` everywhere (DESIGN.md
//! §15).
//!
//! Before this module existed every sweep cell re-synthesized its content
//! realization, re-built and re-parsed its manifest, and re-drew its
//! whole trace corpus — per *session*. All of that data is immutable once
//! built and identical across the hundreds of sessions that share a
//! realization, so the corpus hoists it: one [`McScenario`] per Monte
//! Carlo realization and one [`TitleScenario`] per fleet title, each
//! holding `Arc`'d content plus the round-tripped manifest view, cloned
//! by handle into every session. The shared data never feeds back into
//! session state, so sharing is observationally identical to per-spec
//! construction — `tests/corpus_parity.rs` and the `arc_sharing`
//! proptests pin that equivalence byte for byte.

use crate::setup::{dash_view, SEED};
use abr_event::time::Duration;
use abr_manifest::view::SharedDash;
use abr_media::content::{Content, SharedContent};
use abr_net::trace::Trace;

/// Everything one Monte Carlo realization shares across its sessions:
/// the content cut, its bound DASH view (round-tripped through MPD text
/// exactly as the per-session path did), and the full named trace
/// corpus drawn from the realization seed.
pub struct McScenario {
    /// The realization's content seed (`SEED + realization`).
    pub seed: u64,
    /// The content cut, shared by handle.
    pub content: SharedContent,
    /// The bound DASH manifest view over `content`, shared by handle.
    pub dash: SharedDash,
    /// The named trace corpus for this realization, in
    /// [`abr_net::corpus::all`] order. Sessions clone the one they need.
    pub traces: Vec<(&'static str, Trace)>,
}

/// The Monte Carlo sweep's scenario corpus, keyed by realization index.
pub struct ScenarioCorpus {
    scenarios: Vec<McScenario>,
}

impl ScenarioCorpus {
    /// Builds the corpus for `seeds` realizations of trace length
    /// `trace_len`: each realization's content, DASH view and trace
    /// corpus, built exactly once. Realization `r` uses content seed
    /// `SEED + r`, matching the historical per-cell construction.
    pub fn build_mc(seeds: u64, trace_len: Duration) -> ScenarioCorpus {
        let scenarios = (0..seeds)
            .map(|r| {
                let seed = SEED.wrapping_add(r);
                let content: SharedContent = Content::drama_show(seed).into();
                let dash = SharedDash::new(dash_view(&content));
                let traces = abr_net::corpus::all(trace_len, seed);
                McScenario {
                    seed,
                    content,
                    dash,
                    traces,
                }
            })
            .collect();
        ScenarioCorpus { scenarios }
    }

    /// Number of realizations.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the corpus holds no realizations.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The shared scenario for one realization index.
    pub fn scenario(&self, realization: u64) -> &McScenario {
        &self.scenarios[realization as usize]
    }

    /// The trace names, in corpus order (identical for every
    /// realization).
    pub fn trace_names(&self) -> Vec<&'static str> {
        self.scenarios
            .first()
            .map(|s| s.traces.iter().map(|(n, _)| *n).collect())
            .unwrap_or_default()
    }
}

/// One fleet title's shared data: the content cut and its DASH view.
/// Traces stay per-session (each plan draws its own trace seed).
pub struct TitleScenario {
    /// The title's content cut, shared by handle.
    pub content: SharedContent,
    /// The bound DASH manifest view over `content`, shared by handle.
    pub dash: SharedDash,
}

impl TitleScenario {
    /// Builds one title's shared data: content seed `seed + title` (the
    /// same derivation the per-worker caches used, and the one
    /// [`TitleCorpus::build`] applies to every catalog entry).
    #[must_use]
    pub fn build(seed: u64, title: usize) -> TitleScenario {
        let content: SharedContent = Content::drama_show(seed.wrapping_add(title as u64)).into();
        let dash = SharedDash::new(dash_view(&content));
        TitleScenario { content, dash }
    }
}

/// A fleet's title catalog: every title's content and manifest view,
/// built once up front and shared read-only across all fleet workers
/// (replacing the per-worker lazily-filled content caches).
pub struct TitleCorpus {
    titles: Vec<TitleScenario>,
}

impl TitleCorpus {
    /// Builds all `titles` catalog entries for a fleet seeded with
    /// `seed`. Title `t` uses content seed `seed + t` — the same
    /// derivation the per-worker caches used.
    pub fn build(seed: u64, titles: usize) -> TitleCorpus {
        let titles = (0..titles).map(|t| TitleScenario::build(seed, t)).collect();
        TitleCorpus { titles }
    }

    /// Number of titles in the catalog.
    pub fn len(&self) -> usize {
        self.titles.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.titles.is_empty()
    }

    /// The shared scenario for one title.
    pub fn title(&self, title: usize) -> &TitleScenario {
        &self.titles[title]
    }

    /// Approximate heap bytes of the shared catalog (content size tables
    /// plus manifest views) — the numerator of the fleet's shared-data
    /// footprint in `exp fleet --profile`.
    pub fn approx_bytes(&self) -> u64 {
        self.titles
            .iter()
            .map(|t| content_approx_bytes(&t.content))
            .sum()
    }
}

/// Deterministic estimate of one content realization's heap footprint:
/// the per-chunk size tables dominate (`tracks × chunks × 8 B`), plus
/// the id/total side tables.
pub fn content_approx_bytes(content: &Content) -> u64 {
    let tracks = content.track_ids().len() as u64;
    let chunks = content.num_chunks() as u64;
    let word = core::mem::size_of::<u64>() as u64;
    tracks * chunks * word // size tables
        + tracks * 2 * word // totals + id list
        + core::mem::size_of::<Content>() as u64
}

/// Compile-time proof the shared corpus types may be captured by
/// reference from sweep worker closures (the `Sync` half of the sharing
/// contract; `runner::static_send_sync_assertions` covers the owned
/// types).
#[allow(dead_code)]
fn static_sync_assertions() {
    fn sync<T: Sync>() {}
    sync::<ScenarioCorpus>();
    sync::<TitleCorpus>();
    sync::<SharedContent>();
    sync::<SharedDash>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_corpus_matches_per_cell_construction() {
        let corpus = ScenarioCorpus::build_mc(2, Duration::from_secs(60));
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.trace_names().len(), abr_net::corpus::LEN);
        for r in 0..2u64 {
            let sc = corpus.scenario(r);
            let seed = SEED.wrapping_add(r);
            assert_eq!(sc.seed, seed);
            let legacy = Content::drama_show(seed);
            let id = abr_media::track::TrackId::video(3);
            assert_eq!(sc.content.chunk_size(id, 10), legacy.chunk_size(id, 10));
            let legacy_traces = abr_net::corpus::all(Duration::from_secs(60), seed);
            assert_eq!(sc.traces, legacy_traces);
            assert_eq!(sc.dash.video_declared.len(), 6);
        }
    }

    #[test]
    fn title_corpus_matches_fleet_derivation() {
        let corpus = TitleCorpus::build(77, 3);
        assert_eq!(corpus.len(), 3);
        let legacy = Content::drama_show(77u64.wrapping_add(2));
        let id = abr_media::track::TrackId::audio(1);
        assert_eq!(
            corpus.title(2).content.chunk_size(id, 5),
            legacy.chunk_size(id, 5)
        );
        assert!(corpus.approx_bytes() > 0);
    }

    #[test]
    fn empty_corpora_have_no_names_and_no_bytes() {
        let mc = ScenarioCorpus::build_mc(0, Duration::from_secs(60));
        assert!(mc.is_empty());
        assert!(mc.trace_names().is_empty());
        let titles = TitleCorpus::build(1, 0);
        assert!(titles.is_empty());
        assert_eq!(titles.approx_bytes(), 0);
    }

    #[test]
    fn catalog_footprint_is_the_sum_of_its_titles() {
        let corpus = TitleCorpus::build(5, 3);
        let by_title: u64 = (0..3)
            .map(|t| content_approx_bytes(&corpus.title(t).content))
            .sum();
        assert_eq!(corpus.approx_bytes(), by_title);
        let content = &corpus.title(0).content;
        let tables = (content.track_ids().len() * content.num_chunks() * 8) as u64;
        assert!(
            content_approx_bytes(content) > tables,
            "size tables plus side tables"
        );
    }
}
