//! Quickstart: the paper's §3.1 hello-world pair — a Python app and a Bash
//! app — plus future chaining.
//!
//! Run with: `cargo run --example quickstart`

use parsl::prelude::*;

fn main() {
    // Configuration is separate from program logic (§3.5): swap the
    // executor line and nothing else changes.
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(4))
        .build()
        .expect("kernel starts");

    // @python_app equivalent.
    let hello = dfk.python_app("hello", |name: String| format!("Hello {name}"));

    // @bash_app equivalent: the body renders a shell command; the task
    // value is its exit code.
    let hello_sh = dfk.bash_app("hello_sh", |name: String| format!("echo 'Hello {name}'"));

    // Invocations return futures immediately (§3.1.2).
    let f1 = parsl::core::call!(hello, "World".to_string());
    let f2 = parsl::core::call!(hello_sh, "World".to_string());
    println!("python app says: {}", f1.result().expect("hello runs"));
    println!("bash app exit code: {}", f2.result().expect("echo runs"));

    // Compositionality (§3.3): futures passed as arguments become
    // dependency edges; this chain runs strictly in order without any
    // explicit synchronization.
    let add_one = dfk.python_app("add_one", |x: i64| x + 1);
    let mut f = parsl::core::call!(add_one, 0i64);
    for _ in 0..9 {
        f = parsl::core::call!(add_one, f);
    }
    println!(
        "ten chained increments: {}",
        f.result().expect("chain runs")
    );

    // Parallel fan-out with the map construct, then a reduction.
    let square = dfk.python_app("square", |x: i64| x * x);
    let squares: Vec<i64> = square
        .map(1..=10)
        .results()
        .into_iter()
        .map(|r| r.expect("square runs"))
        .collect();
    println!("squares of 1..10: {squares:?}");
    let sum = square.map_reduce(1..=10, 0, |a, b| a + b);
    println!(
        "sum of squares 1..10: {}",
        sum.result().expect("squares run")
    );

    dfk.shutdown();
}
