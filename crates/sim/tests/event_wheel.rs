//! Event-wheel differential suite: multi-clock designs driven through
//! the wheel scheduler (`ExecMode::Compiled`, in its default and
//! four-state configurations) and the legacy worklist oracle
//! (`ExecMode::Legacy`) in lockstep, asserting bit-identical
//! stores after every operation — including interleaved `settle()`
//! calls, which the wheel services by draining pending events while the
//! oracle re-evaluates everything.
//!
//! Also pins the wheel's dispatch economics: a settled wheel re-settles
//! with zero process evaluations, and per-edge trigger lists probe no
//! more processes than the oracle's sensitivity scan.

use mage_logic::LogicVec;
use mage_sim::{elaborate, Design, ExecMode, Simulator};
use std::sync::Arc;

fn design_of(src: &str, top: &str) -> Arc<Design> {
    let file = mage_verilog::parse(src).expect("parses");
    Arc::new(elaborate(&file, top).expect("elaborates"))
}

fn v(w: usize, x: u64) -> LogicVec {
    LogicVec::from_u64(w, x)
}

/// One lockstep operation.
enum Op<'a> {
    Poke(&'a str, LogicVec),
    PokeMany(Vec<(&'a str, LogicVec)>),
    Settle,
}

fn compare_stores(design: &Design, fast: &mut Simulator, slow: &mut Simulator, at: &str) {
    for decl in &design.signals {
        let id = design.signal(&decl.name).expect("name resolves");
        let (f, s) = (fast.peek(id).clone(), slow.peek(id));
        assert!(
            f.case_eq(s),
            "at {at}: signal `{}` diverged\n  wheel:  {}\n  legacy: {}",
            decl.name,
            f.to_binary_string(),
            s.to_binary_string(),
        );
    }
}

/// Run `ops` on the legacy scheduler and on the wheel's default and
/// four-state configurations, comparing every signal after each op.
/// Returns the legacy simulator, which every configuration matched at
/// the end.
fn lockstep(design: &Arc<Design>, ops: Vec<Op<'_>>) -> Simulator {
    let wheel = || Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
    let mut four = wheel();
    four.set_two_state(false);
    let mut fasts = [(wheel(), "wheel"), (four, "four-state")];
    let mut slow = Simulator::with_mode(Arc::clone(design), ExecMode::Legacy);
    let rs = slow.settle();
    for (fast, label) in &mut fasts {
        assert_eq!(fast.settle(), rs, "{label}: boot settle diverged");
        compare_stores(design, fast, &mut slow, &format!("{label} boot"));
    }
    for (i, op) in ops.into_iter().enumerate() {
        let apply = |sim: &mut Simulator| match &op {
            Op::Poke(name, val) => sim.poke(name, val.clone()),
            Op::PokeMany(drives) => sim.poke_many(drives.iter().map(|(n, v)| (*n, v.clone()))),
            Op::Settle => sim.settle(),
        };
        let rs = apply(&mut slow);
        for (fast, label) in &mut fasts {
            let at = format!("{label} op {i}");
            assert_eq!(apply(fast), rs, "{at} diverged in result");
            compare_stores(design, fast, &mut slow, &at);
        }
        if rs.is_err() {
            return slow;
        }
    }
    slow
}

const DUAL_COUNTER: &str = "module top(
    input clka, input clkb, input rst,
    input [7:0] da, input [7:0] db,
    output reg [7:0] qa, output reg [15:0] qb,
    output [7:0] mixa, output [15:0] mixb);
  always @(posedge clka or posedge rst)
    if (rst) qa <= 8'h00; else qa <= qa + da;
  always @(posedge clkb or posedge rst)
    if (rst) qb <= 16'h0000; else qb <= qb + {8'h00, db};
  assign mixa = qa ^ da;
  assign mixb = qb + {8'h00, db};
endmodule";

const MIXED_EDGES: &str = "module top(
    input clk, input rst, input [3:0] d,
    output reg [3:0] qp, output reg [3:0] qn, output [3:0] y);
  always @(posedge clk or posedge rst)
    if (rst) qp <= 4'd0; else qp <= d;
  always @(negedge clk)
    qn <= qp + 4'd1;
  assign y = qp ^ qn;
endmodule";

const DIVIDER_CHAIN: &str = "module top(input clk, input rst, output reg c0, output reg c1, output reg c2, output [1:0] lv);
  always @(posedge clk or posedge rst) if (rst) c0 <= 1'b0; else c0 <= ~c0;
  always @(posedge c0 or posedge rst)  if (rst) c1 <= 1'b0; else c1 <= ~c1;
  always @(posedge c1 or posedge rst)  if (rst) c2 <= 1'b0; else c2 <= ~c2;
  assign lv = {c2, c1};
endmodule";

const HANDSHAKE: &str = "module top(
    input clka, input clkb, input rst,
    input [7:0] data, input req,
    output reg ack, output reg [7:0] captured, output busy);
  reg reqa;
  always @(posedge clka or posedge rst)
    if (rst) reqa <= 1'b0; else reqa <= req;
  always @(posedge clkb or posedge rst)
    if (rst) begin ack <= 1'b0; captured <= 8'h00; end
    else begin
      ack <= reqa;
      if (reqa && !ack) captured <= data;
    end
  assign busy = reqa & ~ack;
endmodule";

#[test]
fn dual_clock_counter_lockstep() {
    let d = design_of(DUAL_COUNTER, "top");
    let mut ops = vec![
        Op::PokeMany(vec![
            ("rst", v(1, 1)),
            ("clka", v(1, 0)),
            ("clkb", v(1, 0)),
            ("da", v(8, 3)),
            ("db", v(8, 5)),
        ]),
        Op::Poke("rst", v(1, 0)),
    ];
    // Interleave the two domains at different rates: clka every
    // iteration, clkb every third, with data changing mid-stream.
    for i in 0..12u64 {
        ops.push(Op::Poke("clka", v(1, 1)));
        ops.push(Op::Poke("clka", v(1, 0)));
        if i % 3 == 0 {
            ops.push(Op::Poke("clkb", v(1, 1)));
            ops.push(Op::Poke("clkb", v(1, 0)));
        }
        if i == 6 {
            ops.push(Op::PokeMany(vec![("da", v(8, 7)), ("db", v(8, 11))]));
        }
        ops.push(Op::Settle); // a drained wheel must equal a full re-eval
    }
    // Simultaneous edges on both clocks in one drive batch.
    ops.push(Op::PokeMany(vec![("clka", v(1, 1)), ("clkb", v(1, 1))]));
    ops.push(Op::PokeMany(vec![("clka", v(1, 0)), ("clkb", v(1, 0))]));
    lockstep(&d, ops);
}

#[test]
fn mixed_edge_directions_lockstep() {
    let d = design_of(MIXED_EDGES, "top");
    let mut ops = vec![
        Op::PokeMany(vec![("rst", v(1, 1)), ("clk", v(1, 0)), ("d", v(4, 0))]),
        Op::Poke("rst", v(1, 0)),
    ];
    for i in 0..10u64 {
        ops.push(Op::Poke("d", v(4, i % 16)));
        ops.push(Op::Poke("clk", v(1, 1))); // posedge domain
        ops.push(Op::Poke("clk", v(1, 0))); // negedge domain
    }
    lockstep(&d, ops);
}

#[test]
fn redriven_signal_in_one_batch_lockstep() {
    // The last batch drives clk twice: 1 -> 0 is a negedge and the
    // re-drive 0 -> 1 a posedge, each judged against the earlier drive
    // of the batch rather than the store. Both flops fire in one wave
    // on the pre-batch state: qn <= 3 + 1, qp <= d = 9.
    let d = design_of(MIXED_EDGES, "top");
    let mut sim = lockstep(
        &d,
        vec![
            Op::PokeMany(vec![("rst", v(1, 1)), ("clk", v(1, 0)), ("d", v(4, 3))]),
            Op::Poke("rst", v(1, 0)),
            Op::Poke("clk", v(1, 1)),
            Op::Poke("d", v(4, 5)),
            Op::PokeMany(vec![("clk", v(1, 0)), ("d", v(4, 9)), ("clk", v(1, 1))]),
        ],
    );
    let bits = |sim: &mut Simulator, name: &str| sim.peek_by_name(name).unwrap().to_binary_string();
    assert_eq!(bits(&mut sim, "clk"), "1");
    assert_eq!(bits(&mut sim, "qp"), "1001");
    assert_eq!(bits(&mut sim, "qn"), "0100");
    assert_eq!(bits(&mut sim, "y"), "1101");

    // Here only the re-drive is an edge (no process waits on a negedge
    // of clk), and the flop it fires closes a combinational loop: the
    // batch must propagate, and fail, in the call that applied it.
    let d = design_of(
        "module top(input clk, input rst, output reg en, output y);
           always @(posedge clk or posedge rst) if (rst) en <= 1'b0; else en <= 1'b1;
           assign y = en ? ~y : 1'b0;
         endmodule",
        "top",
    );
    lockstep(
        &d,
        vec![
            Op::PokeMany(vec![("rst", v(1, 1)), ("clk", v(1, 0))]),
            Op::Poke("clk", v(1, 1)),
            Op::Poke("rst", v(1, 0)),
            Op::PokeMany(vec![("clk", v(1, 0)), ("clk", v(1, 1))]),
        ],
    );
    let mut s = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    s.settle().unwrap();
    s.poke_many([("rst", v(1, 1)), ("clk", v(1, 0))]).unwrap();
    s.poke("clk", v(1, 1)).unwrap();
    s.poke("rst", v(1, 0)).unwrap();
    assert!(
        s.poke_many([("clk", v(1, 0)), ("clk", v(1, 1))]).is_err(),
        "the re-driven posedge must fire inside the batch"
    );
}

#[test]
fn divider_chain_cascade_lockstep() {
    let d = design_of(DIVIDER_CHAIN, "top");
    let mut ops = vec![
        Op::PokeMany(vec![("rst", v(1, 1)), ("clk", v(1, 0))]),
        Op::Poke("rst", v(1, 0)),
    ];
    for _ in 0..16 {
        ops.push(Op::Poke("clk", v(1, 1)));
        ops.push(Op::Poke("clk", v(1, 0)));
    }
    // Mid-stream async reset, then keep clocking.
    ops.push(Op::Poke("rst", v(1, 1)));
    ops.push(Op::Poke("rst", v(1, 0)));
    for _ in 0..8 {
        ops.push(Op::Poke("clk", v(1, 1)));
        ops.push(Op::Settle);
        ops.push(Op::Poke("clk", v(1, 0)));
    }
    lockstep(&d, ops);
}

#[test]
fn handshake_across_domains_lockstep() {
    let d = design_of(HANDSHAKE, "top");
    let mut ops = vec![
        Op::PokeMany(vec![
            ("rst", v(1, 1)),
            ("clka", v(1, 0)),
            ("clkb", v(1, 0)),
            ("req", v(1, 0)),
            ("data", v(8, 0xA5)),
        ]),
        Op::Poke("rst", v(1, 0)),
        Op::Poke("req", v(1, 1)),
    ];
    for i in 0..10u64 {
        // Drift the phases: A leads, B lags by one op.
        ops.push(Op::Poke("clka", v(1, 1)));
        ops.push(Op::Poke("clkb", v(1, 1)));
        ops.push(Op::Poke("clka", v(1, 0)));
        ops.push(Op::Poke("clkb", v(1, 0)));
        if i == 4 {
            ops.push(Op::PokeMany(vec![("req", v(1, 0)), ("data", v(8, 0x3C))]));
        }
        if i == 7 {
            ops.push(Op::Poke("req", v(1, 1)));
        }
    }
    lockstep(&d, ops);
}

#[test]
fn x_boot_edges_lockstep() {
    // First drives out of the all-X boot state make X→0 / X→1 edges;
    // the wheel's edge classifier must agree with the oracle's scan.
    let d = design_of(MIXED_EDGES, "top");
    lockstep(
        &d,
        vec![
            Op::Poke("clk", v(1, 1)), // X→1: posedge
            Op::Poke("clk", v(1, 0)), // 1→0: negedge
            Op::Poke("rst", v(1, 1)),
            Op::Poke("rst", v(1, 0)),
            Op::Poke("d", v(4, 9)),
            Op::Poke("clk", v(1, 1)),
        ],
    );
}

#[test]
fn poke_before_first_settle_stays_lockstep() {
    // No boot settle: the first poke must service the time-zero events
    // in both schedulers — the wheel drains its pending all-comb
    // region, the oracle's first propagating poke evaluates everything.
    // Without this, outputs untouched by the poke (z here) would read 0
    // on the wheel but X on the oracle.
    let d = design_of(
        "module top(input a, input clk, output y, output z, output reg q);
           assign y = ~a;
           assign z = 1'b0;
           always @(posedge clk) q <= a;
         endmodule",
        "top",
    );
    let mut fast = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    let mut slow = Simulator::with_mode(Arc::clone(&d), ExecMode::Legacy);
    let (rf, rs) = (fast.poke("a", v(1, 1)), slow.poke("a", v(1, 1)));
    assert_eq!(rf, rs);
    compare_stores(&d, &mut fast, &mut slow, "first poke without settle");
    assert_eq!(
        fast.peek_by_name("z").unwrap().to_u64(),
        Some(0),
        "time-zero events must have evaluated the constant driver"
    );
    let (rf, rs) = (fast.poke("clk", v(1, 1)), slow.poke("clk", v(1, 1)));
    assert_eq!(rf, rs);
    compare_stores(&d, &mut fast, &mut slow, "clock edge after unsettled boot");

    // Same for a first poke_many, on fresh simulators.
    let mut fast = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    let mut slow = Simulator::with_mode(Arc::clone(&d), ExecMode::Legacy);
    let drives = [("a", v(1, 1)), ("clk", v(1, 1))];
    let rf = fast.poke_many(drives.iter().map(|(n, x)| (*n, x.clone())));
    let rs = slow.poke_many(drives.iter().map(|(n, x)| (*n, x.clone())));
    assert_eq!(rf, rs);
    compare_stores(&d, &mut fast, &mut slow, "first poke_many without settle");
}

#[test]
fn failed_drive_batch_is_a_noop_in_both_schedulers() {
    // A batch with an unknown name must apply nothing: no store write,
    // no pending events. Both schedulers then stay lockstep through
    // later settles and pokes (the wheel's persistent event queue must
    // not retain triggers from the rejected batch).
    let d = design_of(MIXED_EDGES, "top");
    let mut fast = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    let mut slow = Simulator::with_mode(Arc::clone(&d), ExecMode::Legacy);
    fast.settle().unwrap();
    slow.settle().unwrap();
    for sim in [&mut fast, &mut slow] {
        sim.poke_many([("rst", v(1, 1)), ("clk", v(1, 0)), ("d", v(4, 0))])
            .unwrap();
        sim.poke("rst", v(1, 0)).unwrap();
        let err = sim
            .poke_many([("clk", v(1, 1)), ("nonexistent", v(1, 1))])
            .unwrap_err();
        assert!(matches!(err, mage_sim::SimError::UnknownInput(_)));
    }
    compare_stores(&d, &mut fast, &mut slow, "after rejected batch");
    assert_eq!(
        fast.peek_by_name("qp").unwrap().to_u64(),
        Some(0),
        "the clk edge of the rejected batch must not have fired"
    );
    let (rf, rs) = (fast.settle(), slow.settle());
    assert_eq!(rf, rs);
    compare_stores(&d, &mut fast, &mut slow, "settle after rejected batch");
    for (f, s) in [
        (fast.poke("d", v(4, 5)), slow.poke("d", v(4, 5))),
        (fast.poke("clk", v(1, 1)), slow.poke("clk", v(1, 1))),
    ] {
        assert_eq!(f, s);
    }
    compare_stores(&d, &mut fast, &mut slow, "poke after rejected batch");
}

#[test]
fn standing_fault_keeps_reporting_on_resettle() {
    // A definite-valued combinational loop faults every settle on the
    // oracle (full re-evaluation re-detects it); the wheel keeps the
    // faulting events pending, so its settle must also keep erroring
    // rather than silently reporting Ok after the first fault.
    let d = design_of(
        "module top(input a, output y); assign y = a ? ~y : 1'b0; endmodule",
        "top",
    );
    for mode in [ExecMode::Compiled, ExecMode::Legacy] {
        let mut s = Simulator::with_mode(Arc::clone(&d), mode);
        s.settle().unwrap();
        s.poke("a", v(1, 0)).unwrap();
        // Flush a=0 so y reaches a *defined* value — lazy coalescing
        // would otherwise skip straight to a=1 with y still X, where
        // X = ~X is a fixpoint and the loop never excites.
        s.settle().unwrap();
        // The edge-free poke defers; the loop faults at the flush.
        assert!(
            s.poke("a", v(1, 1)).and_then(|()| s.settle()).is_err(),
            "{mode:?}: loop must fault"
        );
        for _ in 0..3 {
            assert!(
                s.settle().is_err(),
                "{mode:?}: a standing fault must keep reporting on settle"
            );
        }
    }
}

#[test]
fn settled_wheel_drains_in_constant_work() {
    let d = design_of(DUAL_COUNTER, "top");
    let mut s = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    s.settle().unwrap();
    s.poke_many([("rst", v(1, 1)), ("clka", v(1, 0)), ("clkb", v(1, 0))])
        .unwrap();
    s.poke("rst", v(1, 0)).unwrap();
    s.reset_eval_counts();
    for _ in 0..100 {
        s.settle().unwrap();
    }
    assert_eq!(
        s.eval_counts().total_evals(),
        0,
        "settled wheel must drain without evaluating anything"
    );
}

#[test]
fn per_edge_triggers_probe_no_more_than_legacy_scan() {
    // MIXED_EDGES has a posedge and a negedge process on one clock: the
    // oracle scans both per clock change, the wheel probes only the
    // matching direction's list.
    let d = design_of(MIXED_EDGES, "top");
    let run = |mode: ExecMode| {
        let mut s = Simulator::with_mode(Arc::clone(&d), mode);
        s.settle().unwrap();
        s.poke_many([("rst", v(1, 1)), ("clk", v(1, 0)), ("d", v(4, 0))])
            .unwrap();
        s.poke("rst", v(1, 0)).unwrap();
        s.reset_eval_counts();
        for i in 0..16u64 {
            s.poke("d", v(4, i)).unwrap();
            s.poke("clk", v(1, 1)).unwrap();
            s.poke("clk", v(1, 0)).unwrap();
        }
        s.eval_counts()
    };
    let wheel = run(ExecMode::Compiled);
    let legacy = run(ExecMode::Legacy);
    assert_eq!(
        wheel.total_evals(),
        legacy.total_evals(),
        "both schedulers run the same process evaluations"
    );
    assert!(
        wheel.edge_probes < legacy.edge_probes,
        "per-edge lists must probe strictly fewer processes than the \
         full sensitivity scan (wheel {} vs legacy {})",
        wheel.edge_probes,
        legacy.edge_probes
    );
}

#[test]
fn untouched_domain_not_evaluated_per_edge() {
    let d = design_of(DUAL_COUNTER, "top");
    let mut s = Simulator::with_mode(Arc::clone(&d), ExecMode::Compiled);
    s.settle().unwrap();
    s.poke_many([
        ("rst", v(1, 1)),
        ("clka", v(1, 0)),
        ("clkb", v(1, 0)),
        ("da", v(8, 1)),
        ("db", v(8, 1)),
    ])
    .unwrap();
    s.poke("rst", v(1, 0)).unwrap();
    s.reset_eval_counts();
    for _ in 0..8 {
        s.poke("clka", v(1, 1)).unwrap();
        s.poke("clka", v(1, 0)).unwrap();
    }
    let c = s.eval_counts();
    // Per clka cycle: one seq eval (posedge only) and one comb re-eval
    // of qa's fanout (`mixa`). Domain B contributes nothing.
    assert_eq!(c.seq_evals, 8, "domain A's flop once per posedge");
    assert_eq!(
        c.comb_evals, 8,
        "only qa's comb fanout re-evaluates; domain B and mixb stay idle"
    );
}
