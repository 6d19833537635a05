//! The hierarchical suffix matcher against the string predicate it
//! replaces: `signal_path(s)` ends with `suffix` on a path-component
//! boundary.

use mtl_core::{elaborate, Design, SignalId};
use mtl_net::MeshTrafficRtlHarness;

/// The predicate as a string comparison over the formatted path.
fn by_string(path: &str, suffix: &str) -> bool {
    path.ends_with(suffix)
        && (path.len() == suffix.len() || path.as_bytes()[path.len() - suffix.len() - 1] == b'.')
}

/// Every signal of a 4-router mesh against every byte suffix of a sample
/// of its paths, plus suffixes one byte longer than a path (`x` or `.`
/// prepended) and the empty suffix.
#[test]
fn the_matcher_agrees_with_the_string_predicate_on_a_mesh() {
    let design: Design =
        elaborate(&MeshTrafficRtlHarness::new(4, 200, 0xBEEF)).expect("elaborates");
    let sigs: Vec<SignalId> = (0..design.signals().len()).map(SignalId::from_index).collect();
    let paths: Vec<String> = sigs.iter().map(|&s| design.signal_path(s)).collect();
    let mut suffixes = vec![String::new()];
    for path in paths.iter().step_by(17) {
        suffixes.extend((0..path.len()).map(|i| path[i..].to_string()));
        suffixes.extend([format!("x{path}"), format!(".{path}")]);
    }
    let mut matched = 0;
    for suffix in &suffixes {
        for (&s, path) in sigs.iter().zip(&paths) {
            let want = by_string(path, suffix);
            assert_eq!(design.has_path_suffix(s, suffix), want, "`{path}` against `{suffix}`");
            matched += usize::from(want);
        }
    }
    // Leaf names repeat across routers, so short suffixes match many
    // signals and a full path matches at least its own.
    assert!(matched > suffixes.len(), "{matched} matches over {} suffixes", suffixes.len());
}
