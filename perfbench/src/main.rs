//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cvc-stream|fec-tcp|serve-mixed|delta-hvc>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up nine times,
//! runs its operations back to back for `--seconds`, checks every output
//! outside the timed window, and prints one JSON result line last. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the per-layer ones. A failed check exits 1 without a result line; a
//! usage error exits 2. See `README.md` beside this package.

mod inputs;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use workloads::Ctx;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) if workloads::NAMES.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "perfbench: unknown workload {:?} (one of {:?})",
                a.workload,
                workloads::NAMES
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let work = match sys::WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work,
    };
    let outcome = workloads::run(&args.workload, &ctx).and_then(|run| run.print(args.traced));
    drop(ctx);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload cvc-stream --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("cvc-stream", 7, 10.0, true)
        );
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed 1").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
