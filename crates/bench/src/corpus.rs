//! The shared scenario corpus: build once, `Arc` everywhere (DESIGN.md
//! §15).
//!
//! Every input a sweep cell reads is immutable once built and identical
//! across the sessions that share it, so the corpus builds each one once
//! and cells clone handles, never data: one [`McScenario`] per Monte
//! Carlo realization and one [`TitleScenario`] per fleet title, each
//! holding `Arc`'d content and a round-tripped DASH view. Two inputs are
//! shared more widely still. The MPD declares the ladders, chunk duration
//! and chunk count but no chunk size, so every realization of one ladder
//! renders the same manifest: consecutive realizations whose content
//! declares the same manifest share one view. And the corpus profiles
//! that ignore the seed ([`abr_net::corpus::reads_seed`]) are drawn once
//! per trace length and handed out by handle. The shared data never
//! feeds back into session state, so sharing is observationally identical
//! to per-spec construction — `tests/corpus_parity.rs` and the
//! `arc_sharing` proptests pin that equivalence byte for byte.

use crate::fleet::TRACE_SECS;
use crate::setup::{dash_view, SEED};
use abr_event::time::Duration;
use abr_manifest::view::SharedDash;
use abr_media::content::{Content, SharedContent};
use abr_net::corpus::Corpus;
use abr_net::trace::Trace;

/// Everything one Monte Carlo realization shares across its sessions:
/// the content cut, its bound DASH view (round-tripped through MPD text
/// exactly as the per-session path did), and the full named trace
/// corpus for the realization seed.
pub struct McScenario {
    /// The realization's content seed (`SEED + realization`).
    pub seed: u64,
    /// The content cut, shared by handle.
    pub content: SharedContent,
    /// The bound DASH manifest view over `content`, shared by handle
    /// (and with every realization that declares the same manifest).
    pub dash: SharedDash,
    /// The named trace corpus for this realization, in
    /// [`abr_net::corpus::all`] order. The seed-independent profiles are
    /// handles to one copy shared by every realization; sessions clone
    /// the handle they need.
    pub traces: Vec<(&'static str, Trace)>,
}

/// The Monte Carlo sweep's scenario corpus, keyed by realization index.
pub struct ScenarioCorpus {
    scenarios: Vec<McScenario>,
}

impl ScenarioCorpus {
    /// Builds the corpus for `seeds` realizations of trace length
    /// `trace_len`: each realization's content and seeded traces, plus
    /// one DASH view per distinct manifest and one copy of each fixed
    /// trace. Realization `r` uses content seed `SEED + r`, matching the
    /// historical per-cell construction.
    pub fn build_mc(seeds: u64, trace_len: Duration) -> ScenarioCorpus {
        let traces = Corpus::new(trace_len);
        let seeds = (0..seeds).map(|r| SEED.wrapping_add(r));
        let contents = seeds.clone().map(|seed| Content::drama_show(seed).into());
        let scenarios = seeds
            .zip(with_views(contents))
            .map(|(seed, (content, dash))| McScenario {
                seed,
                content,
                dash,
                traces: traces.all(seed),
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

/// Whether two contents render the same MPD: `build_mpd` reads the
/// ladders, the chunk duration and the chunk count, never a chunk size.
fn same_manifest(a: &Content, b: &Content) -> bool {
    a.video() == b.video()
        && a.audio() == b.audio()
        && a.chunk_duration() == b.chunk_duration()
        && a.num_chunks() == b.num_chunks()
}

/// Pairs each content with its DASH view. A view is built only when the
/// content declares a different manifest from the content the last view
/// was built from; until then the contents share that view by handle.
fn with_views(
    contents: impl Iterator<Item = SharedContent>,
) -> impl Iterator<Item = (SharedContent, SharedDash)> {
    let mut last: Option<(SharedContent, SharedDash)> = None;
    contents.map(move |content| {
        if let Some((built_from, view)) = &last {
            if same_manifest(built_from, &content) {
                return (content, SharedDash::clone(view));
            }
        }
        let dash = SharedDash::new(dash_view(&content));
        last = Some((SharedContent::clone(&content), SharedDash::clone(&dash)));
        (content, dash)
    })
}

/// One fleet title's shared data: the content cut and its DASH view.
/// Traces come from the catalog's [`Corpus`]: each plan draws its own
/// seeded trace or takes a handle to a fixed one.
pub struct TitleScenario {
    /// The title's content cut, shared by handle.
    pub content: SharedContent,
    /// The bound DASH manifest view over `content`, shared by handle.
    pub dash: SharedDash,
}

/// Title `title`'s content: seed `seed + title`.
fn title_content(seed: u64, title: usize) -> SharedContent {
    Content::drama_show(seed.wrapping_add(title as u64)).into()
}

impl TitleScenario {
    /// Builds one title's shared data: content seed `seed + title` (the
    /// same derivation the per-worker caches used, and the one
    /// [`TitleCorpus::build`] applies to every catalog entry).
    #[must_use]
    pub fn build(seed: u64, title: usize) -> TitleScenario {
        let content = title_content(seed, title);
        let dash = SharedDash::new(dash_view(&content));
        TitleScenario { content, dash }
    }
}

/// A fleet's title catalog: every title's content and manifest view,
/// plus the fleet-length trace corpus, built once up front and shared
/// read-only across all fleet workers.
pub struct TitleCorpus {
    titles: Vec<TitleScenario>,
    traces: Corpus,
}

impl TitleCorpus {
    /// Builds all `titles` catalog entries for a fleet seeded with
    /// `seed`. Title `t` uses content seed `seed + t` — the same
    /// derivation the per-worker caches used. Titles that declare the
    /// same manifest share one view.
    pub fn build(seed: u64, titles: usize) -> TitleCorpus {
        let titles = with_views((0..titles).map(|t| title_content(seed, t)))
            .map(|(content, dash)| TitleScenario { content, dash })
            .collect();
        TitleCorpus {
            titles,
            traces: Corpus::new(Duration::from_secs(TRACE_SECS)),
        }
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

    /// The fleet's trace corpus: fleet sessions draw their seeded traces
    /// from it and share its fixed ones.
    pub fn traces(&self) -> &Corpus {
        &self.traces
    }

    /// Approximate heap bytes of the titles' content size tables; with
    /// [`Corpus::shared_bytes`] of [`TitleCorpus::traces`], the fleet's
    /// shared-data footprint in `exp fleet --profile`.
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
            assert_eq!(*sc.dash, dash_view(&sc.content));
            assert_eq!(*sc.dash, dash_view(&legacy));
        }
    }

    #[test]
    fn mc_realizations_share_one_view_and_the_fixed_traces() {
        let corpus = ScenarioCorpus::build_mc(3, Duration::from_secs(60));
        let (first, last) = (corpus.scenario(0), corpus.scenario(2));
        assert!(SharedDash::ptr_eq(&first.dash, &last.dash));
        for (i, ((name, a), (_, b))) in first.traces.iter().zip(&last.traces).enumerate() {
            let shared = a.points().as_ptr() == b.points().as_ptr();
            assert_eq!(shared, !abr_net::corpus::reads_seed(i), "{name}");
        }
    }

    #[test]
    fn a_different_manifest_gets_its_own_view() {
        let contents: Vec<SharedContent> = vec![
            Content::drama_show(1).into(),
            Content::drama_show_high_audio(1).into(),
            Content::drama_show_low_audio(1).into(),
            Content::drama_show(2).into(),
        ];
        let views: Vec<(SharedContent, SharedDash)> =
            with_views(contents.iter().cloned()).collect();
        for (content, view) in &views {
            assert_eq!(**view, dash_view(content));
        }
        for pair in views.windows(2) {
            assert!(!SharedDash::ptr_eq(&pair[0].1, &pair[1].1));
        }
        assert_ne!(views[0].1, views[1].1, "the audio ladder is declared");
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
        for t in 0..3 {
            let title = corpus.title(t);
            assert_eq!(*title.dash, dash_view(&title.content));
            assert_eq!(*title.dash, *TitleScenario::build(77, t).dash);
            assert!(SharedDash::ptr_eq(&title.dash, &corpus.title(0).dash));
        }
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
