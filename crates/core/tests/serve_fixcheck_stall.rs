//! A `fixcheck` request runs under its job's deadline like any other
//! audit: when a stalled scan (an NFS mount that hangs, an injected
//! stall fault) outlasts the deadline, the worker cancels both of the
//! fix's audits instead of finishing them for nobody, and publishes
//! nothing.
//!
//! This lives in its own integration-test binary because the fault
//! plan is process-global: no other test shares the process, so
//! `install`/`clear` cannot race a neighbour's I/O.

use std::time::{Duration, Instant};

use refminer::serve::protocol::{ErrorKind, Method, Request, Response};
use refminer::serve::{Engine, EngineHandle, ServeConfig};
use refminer_faultio::{FaultOp, FaultPlan};
use refminer_json::Value;

const DEMO: &str = r#"
int demo_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        return 0;
}
"#;

fn write_demo_tree() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_fixcheck_stall_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("drivers/demo")).expect("mkdir");
    std::fs::write(dir.join("drivers/demo/demo.c"), DEMO).expect("write demo");
    dir
}

fn status(handle: &EngineHandle) -> Value {
    let resp = handle.request(&Request {
        id: 1,
        method: Method::Status,
        deadline_ms: None,
    });
    let Response::Ok { result, .. } = resp else {
        panic!("status request failed: {resp:?}");
    };
    result
}

fn counter(status: &Value, name: &str) -> u64 {
    status.get(name).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn stalled_fixcheck_is_cancelled_and_publishes_nothing() {
    let dir = write_demo_tree();
    // A diff that applies to the tree: the fix turned `return 1;` into
    // `return 0;` in the demo unit.
    let diff = refminer::render_file_diff(
        "drivers/demo/demo.c",
        &DEMO.replace("return 0;", "return 1;"),
        DEMO,
    )
    .expect("texts differ");

    // Every scan and read syscall sleeps 80ms and then proceeds: only
    // the deadline, not an I/O error, can stop a job.
    refminer_faultio::install(FaultPlan {
        seed: 1,
        rate: 1,
        ops: vec![FaultOp::Scan, FaultOp::Read],
        max_failures: None,
        torn_write_permille: 0,
        stall_ms: 80,
    });

    let mut cfg = ServeConfig::new(&dir);
    cfg.default_deadline_ms = 40;
    let mut engine = Engine::start(cfg);
    let handle = engine.handle();

    let deadline = Instant::now() + Duration::from_secs(30);
    while counter(&status(&handle), "audits_cancelled") < 1 {
        assert!(Instant::now() < deadline, "warm-up never cancelled");
        std::thread::sleep(Duration::from_millis(20));
    }

    let resp = handle.request(&Request {
        id: 2,
        method: Method::Fixcheck { diff },
        deadline_ms: Some(40),
    });
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::DeadlineExceeded,
                ..
            }
        ),
        "a stalled fixcheck must miss its deadline: {resp:?}"
    );

    // The worker is still inside the stalled scan when the waiter
    // gives up. It must then cancel the fixcheck's audits, not run
    // them to completion and publish them.
    let deadline = Instant::now() + Duration::from_secs(30);
    let last = loop {
        let s = status(&handle);
        if counter(&s, "audits_cancelled") >= 2 || counter(&s, "audits_ok") > 0 {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "fixcheck job neither cancelled nor finished: {s}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        counter(&last, "audits_cancelled") >= 2,
        "the expired fixcheck must count as cancelled: {last}"
    );
    assert_eq!(
        counter(&last, "audits_ok"),
        0,
        "an expired fixcheck must not count as an audit: {last}"
    );
    assert_eq!(
        handle.revision(),
        0,
        "an expired fixcheck must not publish a snapshot"
    );

    refminer_faultio::clear();
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
