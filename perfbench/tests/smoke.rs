//! Small-scale runs of every workload (`--smoke`), checking that the
//! benchmark prints what `BENCHMARK.json` promises, that its
//! deterministic counts repeat for a fixed seed, and that its
//! correctness gate fires on a corrupted answer.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["caida_ingest", "mawi_query", "caida_mixed"];

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Every `"<key>": "<value>"` string pair in `text`, in order.
fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let names = string_fields(body, "name");
    let units = string_fields(body, "unit");
    assert_eq!(names.len(), units.len(), "every metric has a unit");
    names
        .into_iter()
        .zip(units)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// The result line's metrics as `name -> (value, unit)`.
fn metrics(run: &Run) -> BTreeMap<String, (f64, String)> {
    assert_eq!(run.code, Some(0), "run failed: {}", run.stderr);
    let line = run.stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = BTreeMap::new();
    for entry in body.split("}, ") {
        let name = &entry[1..entry[1..].find('"').expect("name") + 1];
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 = value[..value.find(',').expect("comma")]
            .parse()
            .expect("number");
        let unit = string_fields(entry, "unit")[0].to_string();
        out.insert(name.to_string(), (value, unit));
    }
    out
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let got = metrics(&run(workload, 3, trace, &[]));
            assert_eq!(got.len(), want.len(), "{workload} {section}: {got:?}");
            for (name, unit) in &want {
                let (value, got_unit) = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} {section}: {name} missing"));
                assert_eq!(got_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn deterministic_counts_repeat_for_a_fixed_seed() {
    for workload in WORKLOADS {
        for (trace, names) in [
            (0, &["hh_f1"][..]),
            (
                1,
                &[
                    "tasks.hh_are",
                    "core.rows",
                    "core.segment_bytes",
                    "engine.epochs",
                ][..],
            ),
        ] {
            let a = metrics(&run(workload, 7, trace, &[]));
            let b = metrics(&run(workload, 7, trace, &[]));
            for name in names {
                assert_eq!(
                    a[*name].0, b[*name].0,
                    "{workload}: {name} differs between runs"
                );
            }
        }
    }
}

#[test]
fn gate_fires_on_a_corrupted_answer() {
    for workload in WORKLOADS {
        let r = run(workload, 5, 0, &["--corrupt-answer"]);
        assert_eq!(r.code, Some(3), "{workload}: {}", r.stderr);
        assert!(
            r.stdout.trim().is_empty(),
            "no numbers on a failed gate: {}",
            r.stdout
        );
        assert!(r.stderr.contains("correctness gate failed"), "{}", r.stderr);
    }
}
