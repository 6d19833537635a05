//! A campaign is configured by its builder and nothing else: running one
//! leaves the process environment exactly as it found it, so a second
//! campaign (or a simulator built afterwards) sees what the first saw.

use mtl_sweep::{Campaign, Job, JobMetrics};

fn sorted_vars() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars().collect();
    vars.sort();
    vars
}

#[test]
fn campaign_run_leaves_the_environment_unchanged() {
    let before = sorted_vars();
    let jobs =
        (0..4u64).map(|i| Job::new(format!("job{i}"), move |_| Ok(JobMetrics::new().det("i", i))));
    let report = Campaign::new("environment").no_cache().workers(2).jobs(jobs).run();
    assert_eq!(report.done_count(), 4);
    assert_eq!(sorted_vars(), before, "Campaign::run changed the process environment");
}
