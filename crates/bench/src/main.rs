//! `drink-bench`: regenerate the paper's evaluation (`list`, `all`, or one
//! experiment by id or name), run a JSON `WorkloadSpec` (`custom`), or
//! export a run's trace (`trace`); `usage()` spells out the arguments.
//! `--scale` and `--trials` apply to every experiment. Exit status: 0; 1 if
//! a computed check did not hold; 2 on a usage, input or I/O error.

use std::process::exit;
use std::sync::Arc;

use drink_bench::{banner, figure7, find, measure, Config, Ctx, Line, Table, EXPERIMENTS};
use drink_runtime::trace::validate_chrome_json;
use drink_runtime::Runtime;
use drink_workloads::{
    chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, racy_inc, run_kind_on, runtime_config_for,
    sync_inc, EngineKind, WorkloadSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: drink-bench [--scale F] [--trials N] (list | (all | <E1..E10 or name>) [--out DIR])\n\
         \x20      drink-bench custom (<spec.json> [{engines}] | --template)\n\
         \x20      drink-bench trace [--engine {engines}] [--workload NAME] [--seed N] \
         [--capacity N] [--out FILE] [--text FILE]\n\
         \x20      drink-bench trace --check FILE\n\
         trace workloads: chaos_mix chaos_disjoint chaos_handoff chaos_rdsh racy_inc sync_inc",
        engines = EngineKind::CLI_NAMES
    );
    exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("drink-bench: {msg}");
    exit(2);
}

/// Removes `flag` and the value after it from `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage();
    }
    args.remove(i);
    Some(args.remove(i))
}

fn parse<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| fail(format!("bad value {v:?}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = Ctx {
        scale: take_flag(&mut args, "--scale").map(parse).unwrap_or(1.0),
        trials: take_flag(&mut args, "--trials").map(parse),
    };
    let Some(command) = args.first().cloned() else { usage() };
    let rest = args.split_off(1);
    match command.as_str() {
        "trace" => trace(rest),
        "custom" => custom(&ctx, &rest),
        "list" if rest.is_empty() => {
            for e in &EXPERIMENTS {
                println!("{:<4} {:<30} {}", e.id, e.name, e.artifact);
            }
        }
        name => {
            let mut rest = rest;
            let out = take_flag(&mut rest, "--out");
            let chosen: Vec<_> = if name == "all" { EXPERIMENTS.iter().collect() } else { find(name).into_iter().collect() };
            if chosen.is_empty() || !rest.is_empty() {
                usage();
            }
            if let Some(dir) = &out {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(format!("{dir}: {e}")));
            }
            let mut ok = true;
            for e in chosen {
                let t = (e.run)(&ctx);
                ok &= t.ok();
                let text = banner(e, &ctx) + &t.render();
                let Some(dir) = &out else {
                    println!("{text}");
                    continue;
                };
                let path = format!("{dir}/{}.txt", e.name);
                std::fs::write(&path, text).unwrap_or_else(|err| fail(format!("{path}: {err}")));
                println!("{} {} → {path}{}", e.id, e.name, if t.ok() { "" } else { " (a check did not hold)" });
            }
            exit(if ok { 0 } else { 1 });
        }
    }
}

/// Runs a user-supplied JSON `WorkloadSpec` — communication patterns beyond
/// the 13 profiles — under the baseline and every Figure 7 engine, or one.
fn custom(ctx: &Ctx, args: &[String]) {
    if args.iter().any(|a| a == "--template") {
        let template = WorkloadSpec { name: "custom".into(), ..WorkloadSpec::default() };
        println!("{}", serde_json::to_string_pretty(&template).expect("a spec serializes"));
        return;
    }
    let (path, engine) = match args {
        [path] => (path, None),
        [path, engine] => (path, Some(engine)),
        _ => usage(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let spec: WorkloadSpec = serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("invalid spec: {e}")));
    // Reject a bad spec with its reason before any engine is built.
    spec.validate().unwrap_or_else(|e| fail(e));
    let mut configs = vec![Config::kind(EngineKind::Baseline)];
    match engine.map(|name| EngineKind::parse(name).unwrap_or_else(|| fail(format!("unknown engine: {name}")))) {
        None => configs.extend(figure7()),
        Some(EngineKind::Baseline) => {}
        Some(kind) => configs.push(Config::kind(kind)),
    }

    let header = ["engine", "wall ms", "wall %", "model %", "conflicting", "pess unc", "contended"];
    let mut t = Table::new(&header, &configs);
    let (threads, steps, objects) = (spec.threads, spec.steps_per_thread, spec.heap_objects());
    t.caption = vec![format!("workload '{}': {threads} threads × {steps} steps, {objects} objects", spec.name)];
    let s = measure(&spec, &configs, ctx.trials.unwrap_or(1));
    for (i, (c, x)) in configs.iter().zip(&s).enumerate() {
        let r = &x.last.report;
        let wall_pct = if i == 0 { "-".into() } else { format!("{:.0}", x.wall_pct(&s[0])) };
        let mut cells = vec![c.label.clone(), format!("{:.1}", x.median().as_secs_f64() * 1e3), wall_pct];
        cells.push(format!("{:.0}", x.model_pct()));
        cells.extend([r.opt_conflicting(), r.pess_uncontended(), r.pess_contended()].map(|n| n.to_string()));
        t.lines.push(Line::Row(cells));
    }
    print!("{}", t.render());
}

/// Runs a workload with the trace rings enabled and exports the per-thread
/// timelines: a Chrome-trace JSON file (`chrome://tracing` / Perfetto; every
/// ring record an instant event on its thread's track) and optionally a flat
/// per-thread text dump. `--check` re-parses an exported Chrome trace and
/// validates its shape: `scripts/check_gate.sh`'s export/ingest round trip.
fn trace(mut args: Vec<String>) {
    if let Some(path) = take_flag(&mut args, "--check") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        match validate_chrome_json(&text) {
            Ok(n) => println!("{path}: valid Chrome trace ({n} events)"),
            Err(e) => fail(format!("{path}: {e}")),
        }
        return;
    }
    let engine = take_flag(&mut args, "--engine").unwrap_or_else(|| "hybrid".into());
    let engine = EngineKind::parse(&engine).unwrap_or_else(|| fail(format!("unknown engine {engine:?}")));
    let seed: u64 = take_flag(&mut args, "--seed").map(parse).unwrap_or(0x000D_214B);
    let spec = match take_flag(&mut args, "--workload").as_deref().unwrap_or("chaos_mix") {
        "chaos_mix" => chaos_mix(seed),
        "chaos_disjoint" => chaos_disjoint(seed),
        "chaos_handoff" => chaos_handoff(seed),
        "chaos_rdsh" => chaos_rdsh(seed),
        "racy_inc" => racy_inc(4, 2000),
        "sync_inc" => sync_inc(4, 2000),
        other => fail(format!("unknown workload {other:?}")),
    };
    let capacity: usize = take_flag(&mut args, "--capacity").map(parse).unwrap_or(4096);
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| "DRINK_trace.json".into());
    let text_out = take_flag(&mut args, "--text");
    if !args.is_empty() {
        usage();
    }

    let mut cfg = runtime_config_for(&spec);
    cfg.trace_capacity = capacity.max(2);
    let rt = Arc::new(Runtime::new(cfg));
    let result = run_kind_on(engine, Arc::clone(&rt), &spec);
    let snapshot = rt.trace_rings().unwrap_or_else(|| fail("runtime built no trace rings")).snapshot();
    let (events, threads) = (snapshot.total_events(), snapshot.threads.len());
    println!("{} on {}: {events} events across {threads} thread(s) (ring capacity {capacity})", spec.name, result.engine);

    let chrome = snapshot.to_chrome_json();
    if let Err(e) = validate_chrome_json(&chrome) {
        fail(format!("internal error: emitted invalid Chrome JSON: {e}"));
    }
    std::fs::write(&out, chrome + "\n").unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    println!("wrote {out}");
    if let Some(path) = text_out {
        std::fs::write(&path, snapshot.to_text()).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}
