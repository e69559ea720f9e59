//! Runs every workload for one 50 ms round untraced, and for one
//! untraced and one traced round traced, and checks the result line
//! against `BENCHMARK.json`: every metric named there is present,
//! finite and carries its declared unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.at),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.at
        );
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.s[self.at] != b'"' {
            assert_ne!(
                self.s[self.at], b'\\',
                "escapes are not used in these files"
            );
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.s[start..self.at - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.at] {
            b'{' => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.at += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.at += 4;
                Json::Null
            }
            _ => {
                let start = self.at;
                while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        s: text.as_bytes(),
        at: 0,
    }
    .value()
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{key:?} looked up in {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

/// The result line of one run, or `None` when the workload refused to
/// run because it drives more load threads than this host has cores.
fn run(workload: &str, trace: &str, scratch: &Path) -> Option<Json> {
    // A traced run spends two fifths of its time in rounds: 0.25 s gives
    // it two of 50 ms, one of each kind.
    let seconds = if trace == "1" { "0.25" } else { "0.05" };
    let out = Command::new(env!("CARGO_BIN_EXE_vcode-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", seconds])
        .args(["--trace", trace])
        .arg("--scratch")
        .arg(scratch)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    if String::from_utf8_lossy(&out.stderr).contains("refusing to run") {
        return None;
    }
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    Some(parse(stdout.lines().last().expect("a result line")))
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = parse(&std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap());
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in spec.get("workloads").arr() {
        let workload = w.get("name").str();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let Some(result) = run(workload, trace, &scratch) else {
                continue;
            };
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let declared = spec.get(list).arr();
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{workload} --trace {trace}: exactly the declared {list} metrics"
            );
            for d in declared {
                let name = d.get("name").str();
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: {name} missing"));
                assert_eq!(
                    m.get("unit").str(),
                    d.get("unit").str(),
                    "{workload}: unit of {name}"
                );
                let Json::Num(v) = m.get("value") else {
                    panic!("{workload}: {name} is not a number");
                };
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if list == "end_to_end" {
                    assert!(
                        *v > 0.0,
                        "{workload}: end-to-end {name} must never read 0, got {v}"
                    );
                }
            }
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            // The sweep rows at sizes that do not compile are notes,
            // not failed operations: every workload is clean at the seed.
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload} --trace {trace}"
            );
        }
    }
}
