//! Region serializability (§5): racy code whose regions nevertheless execute
//! atomically under the hybrid RS enforcer.
//!
//! Run: `cargo run --release -p drink-examples --bin region_serializability`

use std::sync::Arc;

use drink_core::{EngineKind, Session};
use drink_rs::RsEnforcer;
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig};

const ACCOUNTS: usize = 12;
const THREADS: usize = 4;
const TRANSFERS: usize = 20_000;

fn main() {
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(THREADS)
        .heap_objects(ACCOUNTS)
        .monitors(1)
        .build()));
    let enforcer = RsEnforcer::new(rt.clone(), EngineKind::Hybrid);

    // Seed the bank.
    for i in 0..ACCOUNTS {
        rt.obj(ObjId(i as u32)).data_write(1_000);
    }

    std::thread::scope(|s| {
        for seed in 0..THREADS {
            let enforcer = &enforcer;
            s.spawn(move || {
                let sess = Session::attach(enforcer.engine());
                let t = sess.tid();
                let mut x = (seed as u64 + 1) * 0x9E37_79B9;
                for _ in 0..TRANSFERS {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let from = ObjId(((x >> 16) % ACCOUNTS as u64) as u32);
                    let to = ObjId(((x >> 32) % ACCOUNTS as u64) as u32);
                    if from == to {
                        continue;
                    }
                    // No program locks anywhere: the *region* is the atomic
                    // unit. Bodies may re-execute, so they must be pure apart
                    // from their tracked accesses, and they propagate the
                    // Restart marker with `?`.
                    enforcer.region(t, |r| {
                        let f = r.read(from)?;
                        let amount = f.min(10);
                        r.write(from, f - amount)?;
                        let g = r.read(to)?;
                        r.write(to, g + amount)?;
                        Ok(())
                    });
                    sess.safepoint();
                }
            });
        }
    });

    let balances: Vec<u64> = (0..ACCOUNTS)
        .map(|i| rt.obj(ObjId(i as u32)).data_read())
        .collect();
    let total: u64 = balances.iter().sum();
    let report = rt.stats().report();
    println!("balances: {balances:?}");
    println!("total:    {total} (expected {})", ACCOUNTS * 1_000);
    println!(
        "regions:  {} executed, {} rolled back and restarted",
        report.get(Event::RegionExec),
        report.get(Event::RegionRestart)
    );
    assert_eq!(total, ACCOUNTS as u64 * 1_000);
    println!("\nMoney was conserved across {} racy transfers: every region was", THREADS * TRANSFERS);
    println!("serializable, with conflicts resolved by rollback-and-restart.");
}
