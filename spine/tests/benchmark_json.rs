//! `BENCHMARK.json` at the repository root and this package must name the
//! same workloads and metrics: the driver reads the file, the program
//! prints from its own tables.

use spine::metrics::{END_TO_END, PER_LAYER};
use spine::workloads::ALL;

/// The `{ … }` object of the file that holds `"name": "<name>"`.
fn object_named<'a>(json: &'a str, name: &str) -> &'a str {
    let key = format!("\"name\": \"{name}\"");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("BENCHMARK.json does not name {name}"));
    let start = json[..at].rfind('{').expect("object start");
    let end = at + json[at..].find('}').expect("object end");
    &json[start..=end]
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

    assert_eq!(json.matches("\"why\":").count(), ALL.len());
    for w in ALL {
        let object = object_named(&json, w.name());
        assert!(
            object.contains(&format!("\"why\": \"{}\"", w.spec().why)),
            "{}: why differs from the spec",
            w.name()
        );
    }

    assert_eq!(json.matches("\"bound\":").count(), END_TO_END.len());
    for (name, unit, lower_is_better, bound) in END_TO_END {
        let object = object_named(&json, name);
        assert!(object.contains(&format!("\"unit\": \"{unit}\"")), "{name}");
        assert!(object.contains(&format!("\"bound\": {bound}")), "{name}");
        let better = if lower_is_better { "lower" } else { "higher" };
        assert!(
            object.contains(&format!("\"better\": \"{better}\"")),
            "{name}"
        );
    }

    let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    let in_contract = PER_LAYER.iter().filter(|m| m.2);
    assert_eq!(
        per_layer.matches("\"name\":").count(),
        in_contract.clone().count()
    );
    for (name, unit, _) in in_contract {
        let object = object_named(per_layer, name);
        assert!(object.contains(&format!("\"unit\": \"{unit}\"")), "{name}");
    }
}
