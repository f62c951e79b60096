//! `BENCHMARK.json` at the repository root is the contract the driver
//! reads; `perfbench::spec` is the table the binary reports from. They must
//! say the same thing.

use perfbench::json::Json;
use perfbench::spec;

#[test]
fn benchmark_json_mirrors_the_spec_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(
        text.len() <= 64 * 1024,
        "BENCHMARK.json is {} bytes",
        text.len()
    );
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    let expected = spec::contract();
    assert!(
        on_disk == expected,
        "BENCHMARK.json and perfbench::spec disagree; the spec says:\n{expected}"
    );
    let keys: Vec<_> = on_disk
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
