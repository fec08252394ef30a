//! NWADE benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper|rush|city --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs whole rounds of the workload for about `S` seconds
//! and reports the end-to-end metrics; `--trace 1` runs one traced round
//! and reports the per-layer metrics. Either way the program's outputs
//! are checked, and the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod checker;
mod stats;
mod trace;
mod workload;

use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        workload::run(args.workload, args.seed, args.seconds)
    };
    stats::emit(correct, attempted, failed, &metrics);
}
