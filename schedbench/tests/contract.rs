//! `BENCHMARK.json` names exactly the workloads and metrics this
//! program runs and prints, with the same units.

use asched_schedbench::{workloads, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string value of the first `"key": "..."` at or after `from`.
fn string_after<'a>(text: &'a str, from: usize, key: &str) -> Option<(usize, &'a str)> {
    let pat = format!("\"{key}\": \"");
    let at = from + text[from..].find(&pat)? + pat.len();
    let end = at + text[at..].find('"')?;
    Some((end, &text[at..end]))
}

/// The `(name, unit)` pairs of a section's entries, in order; units are
/// `None` in `workloads`, whose entries have none.
fn section(text: &str, section: &str, next: Option<&str>) -> Vec<(String, Option<String>)> {
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let end = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\": [")).expect("next section")
    });
    let body = &text[start..end];
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((after, name)) = string_after(body, at, "name") {
        let unit = if section == "workloads" {
            None
        } else {
            string_after(body, after, "unit").map(|(_, u)| u.to_string())
        };
        out.push((name.to_string(), unit));
        at = after;
    }
    out
}

#[test]
fn benchmark_json_matches_the_program() {
    let text = benchmark_json();
    let names: Vec<String> = section(&text, "workloads", Some("end_to_end"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, workloads::NAMES);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(
        section(&text, "end_to_end", Some("per_layer")),
        pairs(END_TO_END)
    );
    assert_eq!(section(&text, "per_layer", None), pairs(PER_LAYER));
}
