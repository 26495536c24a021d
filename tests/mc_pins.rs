//! Byte pin of the Monte Carlo sweep (`exp mc`).
//!
//! No checked-in golden covers `exp mc`, so a change to how its corpus,
//! views or traces are built could shift a score unnoticed. The digests
//! are FNV-1a 64 over the exact text table and compact JSON of a
//! three-realization sweep, recorded before the corpus shared its
//! manifest views and seed-independent traces across realizations.

mod common;

use abr_bench::mc::run_mc;
use common::fnv1a;

#[test]
fn mc_sweep_bytes_are_pinned() {
    let result = run_mc(3, 1);
    let json = serde_json::to_string(&result.json).expect("serialize");
    assert_eq!(result.sessions, 3 * 7 * 7);
    assert_eq!(
        [
            (result.text.len(), fnv1a(&result.text)),
            (json.len(), fnv1a(&json))
        ],
        [(5665, 0x9f1c_0f9d_da3d_7715), (9688, 0xc884_33d9_897f_c568)]
    );
}
