//! The classifier's placements, pinned: which supers and subs a derived
//! class gets, which duplicates fold, which definitions are promoted and in
//! what order, and which properties are attached by reference all land in
//! the encoded system. A seeded Sjøberg-mix trace replayed over the
//! university of Figure 2 must encode to the recorded bytes; a change to the
//! classifier or to type resolution that moves any placement moves them.

mod support;

use support::digest;
use tse_workload::trace::{generate_and_apply_trace, TraceMix};
use tse_workload::university::build_university;

/// The university under one whole-schema view, evolved by the trace of
/// `n` changes drawn with `seed`, encoded.
fn traced_system(n: usize, seed: u64) -> Vec<u8> {
    let (mut tse, _) = build_university().unwrap();
    tse.create_view_all("U").unwrap();
    generate_and_apply_trace(&mut tse, "U", n, &TraceMix::default(), seed).unwrap();
    tse.encode().to_vec()
}

#[test]
fn the_frozen_benchmark_trace_places_every_class_as_recorded() {
    // The repo benchmark's `evolve_trace` draw: 105 changes, seed 1.
    assert_eq!(digest(&traced_system(105, 1)), "0b986d9cbab9380b/75934", "encoded system");
}

#[test]
fn a_long_trace_places_every_class_as_recorded() {
    assert_eq!(digest(&traced_system(300, 4)), "343b0732787cfd22/410622", "encoded system");
}
