//! `--compare A.json B.json`: holds ledger B against ledger A with the
//! bounds `spec::LEDGER_BOUNDS` fixes.
//!
//! Per workload and figure of `spec::LEDGER_BOUNDS` its untraced run
//! reads — the end-to-end metrics and four per-layer ones — the verdict is
//! `worse` (B's median is worse than A's by more than the bound, or B has
//! a failed operation), `unresolved` (either side's spread is wider than
//! the bound, or B looks worse with a single set a side, so the bound
//! cannot be resolved) or `same`. Between ledgers of
//! one seed, exact counts must be equal. For each workload the layer whose
//! self time moved most is named. A ledger may hold several sets; their
//! medians are used, or `FILE#N` picks one.

use mtl_sweep::Json;

use crate::spec::{MetricDecl, Spec, LEDGER_BOUNDS};
use crate::stats::{median, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// One metric of one workload, pooled over a ledger's sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pooled {
    pub value: f64,
    /// The widest relative spread seen: within any run (interquartile
    /// range over its windows) or between the sets' medians.
    pub spread: f64,
    /// Sets behind `value`: one says nothing about run-to-run spread.
    pub runs: usize,
}

pub fn pool(runs: &[Summary]) -> Pooled {
    let medians: Vec<f64> = runs.iter().map(|s| s.median).collect();
    let value = median(&medians);
    let within = runs.iter().map(Summary::spread).fold(0.0, f64::max);
    let (lo, hi) = medians
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    let between = if value == 0.0 || medians.len() < 2 { 0.0 } else { (hi - lo) / value.abs() };
    Pooled { value, spread: within.max(between), runs: runs.len() }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(decl: &MetricDecl, a: Pooled, b: Pooled, b_failed_ops: u64) -> Verdict {
    let bound = decl.bound.expect("gated metrics carry a bound");
    let worse = worse_by(decl, a.value, b.value) > bound;
    if b_failed_ops > 0 {
        Verdict::Worse
    } else if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worse && a.runs < 2 && b.runs < 2 {
        // One run a side shows no run-to-run spread, and on a shared host
        // that spread alone can exceed the bound.
        Verdict::Unresolved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

struct Ledger {
    path: String,
    sets: Vec<Json>,
}

impl Ledger {
    /// Reads `FILE`, or only set `N` of it when given as `FILE#N`.
    fn read(arg: &str) -> Result<Ledger, String> {
        let (path, only) = match arg.rsplit_once('#') {
            Some((path, n)) => {
                (path, Some(n.parse::<usize>().map_err(|_| format!("{arg}: bad set index"))?))
            }
            None => (arg, None),
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = mtl_sweep::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let sets = doc.get("sets").and_then(Json::as_arr).ok_or(format!("{path}: no \"sets\""))?;
        let sets = match only {
            Some(n) => {
                sets.get(n).map(std::slice::from_ref).ok_or(format!("{arg}: no such set"))?
            }
            None => sets,
        };
        if sets.is_empty() {
            return Err(format!("{path}: no sets"));
        }
        Ok(Ledger { path: arg.to_string(), sets: sets.to_vec() })
    }

    /// The seed every set was run with, if they all share one.
    fn seed(&self) -> Option<u64> {
        let mut seeds = self.sets.iter().map(|s| s.get("seed").and_then(Json::as_u64));
        let first = seeds.next()??;
        seeds.all(|s| s == Some(first)).then_some(first)
    }

    /// The record (`end_to_end` or `per_layer`) of a workload in each set.
    fn records<'a>(
        &'a self,
        workload: &'a str,
        section: &'a str,
    ) -> impl Iterator<Item = &'a Json> {
        self.sets.iter().filter_map(move |s| s.get("workloads")?.get(workload)?.get(section))
    }

    /// A metric's summary in each set, from the record's `group`
    /// (`metrics` or `gated`).
    fn summaries(&self, workload: &str, section: &str, group: &str, metric: &str) -> Vec<Summary> {
        self.records(workload, section)
            .filter_map(|r| Summary::from_json(r.get(group)?.get(metric)?))
            .collect()
    }

    fn failed_ops(&self, workload: &str) -> u64 {
        self.records(workload, "end_to_end")
            .chain(self.records(workload, "per_layer"))
            .filter_map(|r| r.get("ops_failed")?.as_u64())
            .sum()
    }

    /// Names flagged exact in any set's traced record.
    fn exact_names(&self, workload: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .records(workload, "per_layer")
            .filter_map(|r| r.get("exact")?.as_arr())
            .flatten()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Median self seconds per layer over the sets.
    fn layer_self(&self, workload: &str) -> Vec<(String, f64)> {
        let mut by_layer: Vec<(String, Vec<f64>)> = Vec::new();
        for record in self.records(workload, "per_layer") {
            for (layer, l) in record.get("layer_self_s").and_then(Json::as_obj).unwrap_or(&[]) {
                let secs = l.get("self_s").and_then(Json::as_f64).unwrap_or(0.0);
                match by_layer.iter_mut().find(|(name, _)| name == layer) {
                    Some((_, all)) => all.push(secs),
                    None => by_layer.push((layer.clone(), vec![secs])),
                }
            }
        }
        by_layer.into_iter().map(|(layer, all)| (layer, median(&all))).collect()
    }
}

pub fn main(spec: &Spec, args: &[String]) -> Result<(), String> {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = paths[..] else {
        return Err("usage: perf_ledger --compare A.json[#SET] B.json[#SET]".to_string());
    };
    let (a, b) = (Ledger::read(a)?, Ledger::read(b)?);
    println!("A = {} ({} sets)   B = {} ({} sets)", a.path, a.sets.len(), b.path, b.sets.len());
    // Simulated statistics are a function of the seed: they are held to
    // equality only between ledgers of one seed.
    let same_seed = a.seed().is_some() && a.seed() == b.seed();
    if !same_seed {
        println!("seeds differ: exact counts are not compared");
    }
    let (mut worse, mut unresolved, mut unequal) = (0, 0, 0);
    for (workload, _) in &spec.workloads {
        println!("\n{workload}");
        for &(name, bound) in LEDGER_BOUNDS {
            let declared = spec.decl(name).expect("ledger bounds name declared metrics");
            let decl = MetricDecl { bound: Some(bound), ..declared.clone() };
            // End-to-end metrics are the record's `metrics`; the per-layer
            // names the untraced run also reads are its `gated`.
            let group = if declared.bound.is_some() { "metrics" } else { "gated" };
            let (ra, rb) = (
                a.summaries(workload, "end_to_end", group, &decl.name),
                b.summaries(workload, "end_to_end", group, &decl.name),
            );
            if group == "gated" && ra.is_empty() && rb.is_empty() {
                continue; // not a figure of this workload
            }
            if ra.is_empty() || rb.is_empty() {
                println!("  {:<26} missing from a ledger", decl.name);
                worse += 1;
                continue;
            }
            let (pa, pb) = (pool(&ra), pool(&rb));
            let v = verdict(&decl, pa, pb, b.failed_ops(workload));
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Same => {}
            }
            println!(
                "  {:<26} A {:>14.4} B {:>14.4} {:<5} worse by {:>+6.1}% (bound {:.0}%, spread A {:.1}% B {:.1}%)  {}",
                decl.name,
                pa.value,
                pb.value,
                decl.unit,
                worse_by(&decl, pa.value, pb.value) * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                pa.spread * 100.0,
                pb.spread * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
        for name in a.exact_names(workload).into_iter().filter(|_| same_seed) {
            let values = |l: &Ledger| -> Vec<f64> {
                l.summaries(workload, "per_layer", "metrics", &name)
                    .iter()
                    .map(|s| s.median)
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let equal = !vb.is_empty() && va.iter().chain(&vb).all(|&v| v == va[0]);
            if !equal {
                unequal += 1;
                println!("  {name:<32} exact count differs: A {va:?} B {vb:?}");
            }
        }
        let (la, lb) = (a.layer_self(workload), b.layer_self(workload));
        let moved = la
            .iter()
            .filter_map(|(layer, sa)| {
                let sb = lb.iter().find(|(l, _)| l == layer)?.1;
                Some((layer, *sa, sb))
            })
            .max_by(|x, y| (x.2 - x.1).abs().total_cmp(&(y.2 - y.1).abs()));
        if let Some((layer, sa, sb)) = moved {
            println!("  layer whose self time moved most: {layer} ({sa:.3} s -> {sb:.3} s)");
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved, {unequal} exact counts differ");
    if worse > 0 || unequal > 0 {
        Err("ledger B is worse than ledger A".to_string())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> MetricDecl {
        MetricDecl { name: "m".into(), unit: "1/s".into(), higher_is_better, bound: Some(0.10) }
    }

    fn tight(value: f64) -> Pooled {
        Pooled { value, spread: 0.01, runs: 2 }
    }

    #[test]
    fn verdicts_follow_direction_bound_spread_and_failed_ops() {
        let rate = decl(true);
        assert_eq!(verdict(&rate, tight(100.0), tight(95.0), 0), Verdict::Same);
        assert_eq!(verdict(&rate, tight(100.0), tight(85.0), 0), Verdict::Worse);
        assert_eq!(verdict(&rate, tight(100.0), tight(150.0), 0), Verdict::Same);
        let time = decl(false);
        assert_eq!(verdict(&time, tight(1.0), tight(1.2), 0), Verdict::Worse);
        assert_eq!(verdict(&time, tight(1.0), tight(0.5), 0), Verdict::Same);
        // A spread wider than the bound cannot resolve the bound.
        let noisy = Pooled { value: 85.0, spread: 0.2, runs: 2 };
        assert_eq!(verdict(&rate, tight(100.0), noisy, 0), Verdict::Unresolved);
        // Nor can one run a side, which has no run-to-run spread to show.
        let once = |value| Pooled { value, spread: 0.0, runs: 1 };
        assert_eq!(verdict(&rate, once(100.0), once(85.0), 0), Verdict::Unresolved);
        assert_eq!(verdict(&rate, once(100.0), once(95.0), 0), Verdict::Same);
        // A failed operation misses every bound.
        assert_eq!(verdict(&rate, tight(100.0), tight(100.0), 1), Verdict::Worse);
    }

    #[test]
    fn pooling_takes_the_median_and_the_widest_spread() {
        let run =
            |median: f64, q1: f64, q3: f64| Summary { median, q1, q3, min: q1, max: q3, n: 9 };
        let p = pool(&[run(100.0, 99.0, 101.0), run(110.0, 105.0, 116.0)]);
        assert_eq!(p.value, 105.0);
        // Within-run: 2% and 10%; between sets: 10/105.
        assert!((p.spread - 0.1).abs() < 1e-12, "{}", p.spread);
        let p = pool(&[run(100.0, 99.0, 101.0), run(130.0, 129.0, 131.0)]);
        assert!((p.spread - 30.0 / 115.0).abs() < 1e-12);
    }
}
