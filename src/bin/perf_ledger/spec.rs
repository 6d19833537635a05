//! The one home of every workload and metric name: `BENCHMARK.json` at
//! the repository root, embedded at compile time so a run can never
//! disagree with the declaration it was built against.

use mtl_sweep::Json;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The bounds `--compare` holds a ledger to, as shares of the baseline:
/// those ISSUE 11 set. They are kept here, not in `BENCHMARK.json`, for
/// two reasons. The driver rejects a benchmark whose ten-run spread
/// exceeds a declared bound, and on the shared reference host that spread
/// reaches 17 % whenever some of the runs fall in a slow spell, so the
/// declared bounds are the 0.25 the contract allows; `--compare` can be
/// tighter because it answers `unresolved` when a ledger's own spread
/// exceeds the bound. And the last four are per-layer names — figures of
/// single workloads and a peak resident set that jitters, which the
/// contract's `end_to_end` list (every metric from every workload, never
/// 0, steady) cannot hold — and `per_layer` entries carry no bound. The
/// untraced run reads those four as well.
pub const LEDGER_BOUNDS: &[(&str, f64)] = &[
    ("setup_s", 0.15),
    ("work_per_s", 0.10),
    ("net.handwritten_gap", 0.10),
    ("serve.submit_done_ms_p50", 0.10),
    ("serve.submit_done_ms_p95", 0.20),
    ("host.peak_rss_mb", 0.05),
];

/// The bound `--compare` holds `name` to, if any.
pub fn ledger_bound(name: &str) -> Option<f64> {
    LEDGER_BOUNDS.iter().find(|(n, _)| *n == name).map(|&(_, bound)| bound)
}

/// Which list of `BENCHMARK.json` a metric is declared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` in declaration order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked in and well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = mtl_sweep::json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array \"{key}\""))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string \"{key}\""))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_u64).ok_or("run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metrics(&self, kind: Kind) -> &[MetricDecl] {
        match kind {
            Kind::EndToEnd => &self.end_to_end,
            Kind::PerLayer => &self.per_layer,
        }
    }

    /// Looks a metric up in either list.
    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// `--list`: every declared name with its unit, direction and bound.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run_seconds {}\n\nworkloads\n", self.run_seconds));
        for (name, why) in &self.workloads {
            out.push_str(&format!("  {name:<22} {why}\n"));
        }
        for (title, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::PerLayer)] {
            out.push_str(&format!("\n{title}\n"));
            for m in self.metrics(kind) {
                let better = if m.higher_is_better { "higher" } else { "lower" };
                let bound = m.bound.map(|b| format!("  bound {b}")).unwrap_or_default();
                let ledger =
                    ledger_bound(&m.name).map(|b| format!("  --compare {b}")).unwrap_or_default();
                out.push_str(&format!("  {:<40} {:<7} {better}{bound}{ledger}\n", m.name, m.unit));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_unique_names_and_a_bounded_setup_metric() {
        let spec = Spec::load();
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        let setup = spec.decl("setup_s").expect("setup_s is mandatory");
        assert!(!setup.higher_is_better && setup.unit == "s");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric carries a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            assert!(bound <= setup.bound.unwrap(), "setup_s carries the largest bound");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for &(name, bound) in LEDGER_BOUNDS {
            let decl = spec.decl(name).unwrap_or_else(|| panic!("{name} is not declared"));
            assert!(
                bound <= decl.bound.unwrap_or(1.0),
                "{name}: --compare is never the laxer gate"
            );
        }
    }
}
