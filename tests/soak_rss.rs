//! Soak: the kernel's memory follows what is in flight, not how much has
//! been run. Five million diamond-shaped tasks pass through one kernel,
//! 256 diamonds at a time, their futures dropped as they settle; resident
//! memory a fifth of the way in and at the end must be the same to within
//! a few MiB. A task table that kept its records would have grown by
//! gigabytes in between.
//!
//! `#[ignore]`: about a minute in release. CI runs it in the stress lane:
//! `cargo test -q --release --test soak_rss -- --ignored`.

use parsl::prelude::*;
use std::collections::VecDeque;

const DIAMONDS: u64 = 1_250_000;
const IN_FLIGHT: usize = 256;

/// `VmRSS` of this process, in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS in kB");
    kib / 1024.0
}

#[test]
#[ignore = "five million tasks; run in release"]
fn rss_is_flat_over_a_long_campaign() {
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(2))
        .build()
        .unwrap();
    let source = dfk.python_app("source", |i: u64| i);
    let left = dfk.python_app("left", |x: u64| x + 1);
    let right = dfk.python_app("right", |x: u64| x * 2);
    let join = dfk.python_app("join", |l: u64, r: u64| l + r);

    let check =
        |(i, bottom): (u64, AppFuture<u64>)| assert_eq!(bottom.result().unwrap(), 3 * i + 1);
    let mut in_flight: VecDeque<(u64, AppFuture<u64>)> = VecDeque::with_capacity(IN_FLIGHT);
    let mut warm = None;
    for i in 0..DIAMONDS {
        if in_flight.len() == IN_FLIGHT {
            check(in_flight.pop_front().expect("full"));
        }
        let top = source.call((Dep::value(i),));
        let l = left.call((Dep::from(&top),));
        let r = right.call((Dep::from(&top),));
        in_flight.push_back((i, join.call((Dep::future(l), Dep::future(r)))));
        if i == DIAMONDS / 5 {
            warm = Some(rss_mib());
        }
    }
    in_flight.into_iter().for_each(check);
    dfk.wait_for_all();
    let (warm, end) = (warm.expect("passed the 20 % mark"), rss_mib());
    eprintln!("VmRSS: {warm:.1} MiB at 20 %, {end:.1} MiB at the end");

    assert_eq!(dfk.task_count() as u64, 4 * DIAMONDS);
    assert_eq!(
        dfk.state_counts().get(&TaskState::Done).copied(),
        Some(4 * DIAMONDS as usize)
    );
    assert!(
        (end - warm).abs() < 8.0,
        "resident memory moved from {warm:.1} to {end:.1} MiB over the last 80 % of the campaign"
    );
    dfk.shutdown();
}
