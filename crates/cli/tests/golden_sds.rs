//! `iis sds`, `iis sds --json` and `iis homology` against committed
//! output, byte for byte. The files under `tests/golden/` pin vertex ids,
//! labels, carriers and facet order of the labelled tower, so any change to
//! how `SDS^b(s^n)` is built that moves an id or relabels a vertex fails
//! here.

use std::path::PathBuf;

/// Every `(n, b)` the CLI accepts with `n ≤ 2` and `b ≤ 3`, plus `(3, 1)`.
const DIMS: [(usize, usize); 12] = [
    (0, 0),
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 0),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 0),
    (2, 1),
    (2, 2),
    (3, 1),
];

fn golden(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run(args: &str) -> String {
    let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    iis_cli::dispatch(&argv).unwrap_or_else(|e| panic!("iis {args}: {e}"))
}

fn check(args: &str, file: &str) {
    let (got, want) = (run(args), golden(file));
    assert!(got == want, "iis {args} differs from golden/{file}");
}

#[test]
fn sds_matches_golden_text() {
    for (n, b) in DIMS {
        check(&format!("sds {n} {b}"), &format!("sds_n{n}_b{b}.txt"));
    }
}

#[test]
fn sds_json_matches_golden() {
    for (n, b) in DIMS {
        check(
            &format!("sds {n} {b} --json"),
            &format!("sds_n{n}_b{b}.json"),
        );
    }
}

#[test]
fn homology_matches_golden() {
    for (n, b) in DIMS {
        check(
            &format!("homology {n} {b}"),
            &format!("homology_n{n}_b{b}.txt"),
        );
    }
}
