//! F16 — fault sweep: external merge sort under injected transient faults.
//!
//! Sweeps the transient-fault rate on a 2-disk array and reports, per rate,
//! the injected fault count, the retries spent curing them, and the sort's
//! transfer counts — which must be *identical* to the fault-free row,
//! because a rejected attempt never touches the device.  A final row runs
//! the same plan with retry disabled to show the clean-error path.

use em_core::hash::Draws;
use em_core::ExtVec;
use emsort::{merge_sort, SortConfig};
use pdm::{DiskArray, FaultPlan, IoMode, Placement, RetryPolicy, SharedDevice};

use crate::table;

fn sort_under(
    permille: u64,
    retry: RetryPolicy,
    data: &[u64],
) -> (Result<Vec<u64>, pdm::PdmError>, pdm::IoSnapshot) {
    let plans: Vec<FaultPlan> = (0..2)
        .map(|i| {
            let p = FaultPlan::new(0xF4_0017 + i);
            if permille > 0 {
                p.with_transient(permille, 1)
            } else {
                p
            }
        })
        .collect();
    let device = DiskArray::new_ram_faulty(
        2,
        256,
        Placement::Independent,
        IoMode::Synchronous,
        &plans,
        retry,
    ) as SharedDevice;
    let cfg = SortConfig::new(4096);
    let out = ExtVec::from_slice(device.clone(), data)
        .and_then(|input| merge_sort(&input, &cfg))
        .and_then(|sorted| sorted.to_vec());
    let snap = device.stats().snapshot();
    (out, snap)
}

/// F16 — fault rate vs completion, retries, and (invariant) transfer counts.
pub fn f16_fault_sweep() {
    let n = 200_000u64;
    let mut rng = Draws::new(0xFA);
    let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();

    let mut rows = Vec::new();
    let mut baseline: Option<(u64, u64)> = None;
    for &permille in &[0u64, 10, 50, 100, 250] {
        let retry = RetryPolicy::new(2);
        let (out, snap) = sort_under(permille, retry, &data);
        let ok = matches!(&out, Ok(v) if *v == expect);
        assert!(ok, "cured transient faults must not change the output");
        let counts = (snap.reads(), snap.writes());
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(
                counts, *b,
                "transfer counts moved under cured faults (rate {permille}/1000)"
            ),
        }
        rows.push(vec![
            format!("{}/1000", permille),
            "retry(2)".into(),
            snap.faults_injected().to_string(),
            snap.retries().to_string(),
            snap.reads().to_string(),
            snap.writes().to_string(),
            "sorted OK".into(),
        ]);
    }

    // Same fault rate, no retry: the run must end in a clean error.
    let (out, snap) = sort_under(250, RetryPolicy::none(), &data);
    rows.push(vec![
        "250/1000".into(),
        "none".into(),
        snap.faults_injected().to_string(),
        snap.retries().to_string(),
        snap.reads().to_string(),
        snap.writes().to_string(),
        match out {
            Ok(_) => "sorted OK".into(),
            Err(e) => format!("clean Err ({})", variant_name(&e)),
        },
    ]);

    table(
        "F16 — fault sweep: N=200k merge sort, 2 disks, transient faults (first attempt fails)",
        &[
            "fault rate",
            "retry",
            "faults injected",
            "retries",
            "reads",
            "writes",
            "outcome",
        ],
        &rows,
    );
}

fn variant_name(e: &pdm::PdmError) -> &'static str {
    match e {
        pdm::PdmError::Io(_) => "Io",
        pdm::PdmError::RetriesExhausted { .. } => "RetriesExhausted",
        pdm::PdmError::Corrupt(_) => "Corrupt",
        _ => "other",
    }
}
