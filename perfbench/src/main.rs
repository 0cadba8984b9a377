//! End-to-end benchmark of the velopt workspace, driven only through its
//! public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <trip_stream|route_query|fleet_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process. The seed makes
//! every input; `--seconds` fixes the op count (a per-workload rate times
//! the seconds), so a slower build runs longer rather than fewer ops. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
//! runs an untraced and a traced pass on identical inputs and reports the
//! per-layer metrics and the tracing overhead. Notes go to stdout as `#`
//! lines; the last line is the JSON result.

mod fleet_loop;
mod report;
mod route_query;
mod stats;
mod trace;
mod trip_stream;
mod twins;

use report::{END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Caps glibc's malloc at `n` arenas.
///
/// glibc opens a further arena whenever a thread finds the others locked,
/// so how many it opens depends on timing, and each keeps the pages freed
/// into it. Uncapped, `fleet_loop`'s peak RSS jumped in steps of about
/// 18 MiB (65, 82 or 100 MiB) between runs whose work differed by a few
/// percent. Capped, it follows what the program allocates.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(n: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter, and runs here
    // before the process has started any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, i32::try_from(n).unwrap_or(i32::MAX));
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_: usize) {}

fn main() {
    cap_malloc_arenas(report::nproc());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "trip_stream" => trip_stream::run,
        "route_query" => route_query::run,
        "fleet_loop" => fleet_loop::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut report = match run(args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let Some(rss) = stats::peak_rss_mb() else {
        eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
        std::process::exit(1);
    };
    report.set("peak_rss_mb", rss);
    report.note(format!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc()
    ));
    let wanted = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    print!("{}", report.render(wanted));
}
