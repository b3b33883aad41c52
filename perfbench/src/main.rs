//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a readable report, the host fingerprint, and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when an output check fails.

use perfbench::inputs::Scale;
use perfbench::{stats, Options, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <warm-start|long-session|replicated> --seed <n> \
     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
        work_dir: PathBuf::from(".bench_work"),
    })
}

fn json_string(s: &str) -> String {
    format!("{s:?}")
}

fn print_outcome(opts: &Options, host: Vec<(&'static str, String)>, outcome: &Outcome) {
    let kind = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{} seed {} ({kind}, about {} s of rounds)",
        opts.workload.name(),
        opts.seed,
        opts.seconds
    );
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !outcome.round_costs.is_empty() {
        println!(
            "  by measured round: reference loop ms; scaled ms/session, \
             daemon us/rpc, client us/rpc"
        );
        for [reference, session, daemon, client] in &outcome.round_costs {
            println!("    {reference:.3}  {session:.4} {daemon:.4} {client:.4}");
        }
    }
    if !outcome.printed.is_empty() {
        println!("  not gated: CPU time before scaling, and wall clock:");
        for m in &outcome.printed {
            println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    for v in &outcome.violations {
        println!("  CHECK FAILED: {v}");
    }
    let mut host: Vec<String> = host
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(&v)))
        .collect();
    host.push(format!(
        "\"workload\": {}",
        json_string(opts.workload.name())
    ));
    host.push(format!("\"seed\": {}", opts.seed));
    println!("{{\"host\": {{{}}}}}", host.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Fingerprint the host before the process narrows itself to one CPU.
    let mut host = stats::host_fingerprint();
    match stats::pin_to_one_cpu() {
        Ok(cpu) => host.push(("pinned_cpu", cpu.to_string())),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    match perfbench::run(&opts) {
        Ok(outcome) => {
            print_outcome(&opts, host, &outcome);
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
