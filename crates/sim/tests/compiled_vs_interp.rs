//! Differential tests: the bytecode interpreter vs the legacy
//! tree-walking oracle.
//!
//! Each design is driven through lock-stepped simulators — the legacy
//! oracle and the default and four-state configurations of the
//! compiled executor — comparing the **entire value store** (every
//! signal, four-state exact) after boot and after every stimulus step.
//! Faults (combinational loops, edge cascades) must also agree.
//!
//! The corpus and mutation machinery live in downstream crates
//! (`mage-problems`, `mage-llm`), so this test drives them through the
//! workspace root crate's dev-dependencies instead; see
//! `tests/compiled_vs_interp_corpus.rs` at the workspace root for the
//! corpus half. This file covers the hand-written designs exercising
//! every instruction the compiler emits.

use mage_logic::LogicVec;
use mage_sim::{elaborate, Design, ExecMode, SimError, Simulator};
use std::sync::Arc;

/// Drive the legacy oracle and the compiled executor's default
/// (plans) and pure four-state configurations in lockstep and compare
/// the full store after every poke. Returns the error all agreed on,
/// if any.
fn lockstep(design: &Arc<Design>, schedule: &[(&str, u64)]) -> Option<SimError> {
    let compiled = || Simulator::with_mode(Arc::clone(design), ExecMode::Compiled);
    let mut four = compiled();
    four.set_two_state(false);
    let mut fasts = [(compiled(), "compiled"), (four, "four-state")];
    let mut slow = Simulator::with_mode(Arc::clone(design), ExecMode::Legacy);
    let rs = slow.settle();
    for (fast, label) in &mut fasts {
        assert_eq!(fast.settle(), rs, "{label}: settle outcome diverged");
        compare_stores(
            design,
            fast,
            &mut slow,
            &format!("{label} after boot settle"),
        );
    }
    if rs.is_err() {
        return rs.err();
    }
    for (i, (name, value)) in schedule.iter().enumerate() {
        let width = design
            .signal(name)
            .map(|id| design.width(id))
            .expect("schedule drives known signals");
        let v = LogicVec::from_u64(width, *value);
        let rs = slow.poke(name, v.clone());
        for (fast, label) in &mut fasts {
            let at = format!("{label} after poke #{i} {name}={value}");
            assert_eq!(fast.poke(name, v.clone()), rs, "{at}: outcome diverged");
            compare_stores(design, fast, &mut slow, &at);
        }
        if rs.is_err() {
            return rs.err();
        }
        // Edge-free pokes defer their combinational flush: settle every
        // simulator so propagation faults surface (identically) at
        // every step.
        let rs = slow.settle();
        for (fast, label) in &mut fasts {
            let at = format!("{label} after settle #{i} {name}={value}");
            assert_eq!(fast.settle(), rs, "{at}: outcome diverged");
            compare_stores(design, fast, &mut slow, &at);
        }
        if rs.is_err() {
            return rs.err();
        }
    }
    None
}

fn compare_stores(design: &Design, fast: &mut Simulator, slow: &mut Simulator, at: &str) {
    for decl in &design.signals {
        let id = design.signal(&decl.name).expect("name resolves");
        let (f, s) = (fast.peek(id).clone(), slow.peek(id));
        assert!(
            f.case_eq(s),
            "{at}: signal `{}` diverged\n  compiled: {}\n  legacy:   {}",
            decl.name,
            f.to_binary_string(),
            s.to_binary_string(),
        );
    }
}

fn design_of(src: &str) -> Arc<Design> {
    let file = mage_verilog::parse(src).unwrap();
    let top = file.modules.last().unwrap().name.clone();
    Arc::new(elaborate(&file, &top).unwrap())
}

#[test]
fn alu_every_op() {
    let d = design_of(
        "module top_module(input [3:0] a, input [3:0] b, input [2:0] op, output reg [4:0] r);
           always @(*) begin
             case (op)
               3'd0: r = a + b;
               3'd1: r = a - b;
               3'd2: r = a & b;
               3'd3: r = a | b;
               3'd4: r = a ^ b;
               3'd5: r = {4'b0, a < b};
               3'd6: r = a << b[1:0];
               default: r = {1'b0, ~a};
             endcase
           end
         endmodule",
    );
    let mut schedule = Vec::new();
    for i in 0..256u64 {
        schedule.push(("a", i & 0xF));
        schedule.push(("b", (i >> 4) & 0xF));
        schedule.push(("op", i % 8));
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn sequential_with_reset_and_feedback() {
    let d = design_of(
        "module top_module(input clk, input rst, input [3:0] d, output reg [3:0] q, output [3:0] n);
           always @(posedge clk or posedge rst)
             if (rst) q <= 4'd0;
             else q <= q + d;
           assign n = ~q;
         endmodule",
    );
    let mut schedule = vec![("rst", 1), ("clk", 0), ("clk", 1), ("rst", 0)];
    for i in 0..40u64 {
        schedule.push(("d", i % 16));
        schedule.push(("clk", 0));
        schedule.push(("clk", 1));
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn shift_register_concat_lvalue() {
    let d = design_of(
        "module top_module(input clk, input rst, input d, output reg [7:0] q, output msb);
           always @(posedge clk)
             if (rst) q <= 8'h00;
             else q <= {q[6:0], d};
           assign msb = q[7];
         endmodule",
    );
    let mut schedule = vec![("rst", 1), ("clk", 0), ("clk", 1), ("rst", 0)];
    for i in 0..32u64 {
        schedule.push(("d", (i * 7 + 3) & 1));
        schedule.push(("clk", 0));
        schedule.push(("clk", 1));
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn dynamic_bit_select_read_and_write() {
    let d = design_of(
        "module top_module(input [2:0] idx, input [7:0] a, output reg [7:0] y, output sel);
           always @(*) begin
             y = 8'h00;
             y[idx] = 1'b1;
           end
           assign sel = a[idx];
         endmodule",
    );
    let mut schedule = Vec::new();
    for i in 0..64u64 {
        schedule.push(("idx", i % 8));
        schedule.push(("a", i * 37 % 256));
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn ternary_x_merge_and_logical_ops() {
    // `sel` stays X at boot: the Select instruction must merge branches
    // exactly like the lazy tree-walker's mux.
    let d = design_of(
        "module top_module(input sel, input [3:0] a, input [3:0] b, output [3:0] y, output l);
           assign y = sel ? a : b;
           assign l = (a != 4'd0) && (b < 4'd9) || !sel;
         endmodule",
    );
    // First pokes leave `sel` at X while a/b become defined.
    let schedule = [
        ("a", 5u64),
        ("b", 5),
        ("a", 3),
        ("b", 12),
        ("sel", 1),
        ("sel", 0),
        ("a", 9),
    ];
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn reductions_replication_part_selects() {
    let d = design_of(
        "module top_module(input [7:0] a, output [2:0] r, output [7:0] m, output [3:0] p);
           assign r = {&a, ^a, |a};
           assign m = {4{a[1:0]}} ^ {2{a[7:4]}};
           assign p = a[6:3];
         endmodule",
    );
    let mut schedule = Vec::new();
    for i in 0..128u64 {
        schedule.push(("a", i * 11 % 256));
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn wide_vectors_cross_word_boundary() {
    let d = design_of(
        "module top_module(input clk, input [63:0] a, input [63:0] b, output reg [95:0] acc, output [64:0] s);
           assign s = a + b;
           always @(posedge clk) acc <= {a[31:0], b} + {32'h0, acc[95:32]};
         endmodule",
    );
    let mut schedule = vec![("clk", 0u64)];
    for i in 0..16u64 {
        schedule.push(("a", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        schedule.push(("b", !i));
        schedule.push(("clk", 1));
        schedule.push(("clk", 0));
    }
    let schedule: Vec<(&str, u64)> = schedule;
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn division_modulo_and_x_poisoning() {
    let d = design_of(
        "module top_module(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
           assign q = a / b;
           assign r = a % b;
         endmodule",
    );
    // b starts X (X-poison paths), then 0 (div-by-zero), then values.
    let schedule = [
        ("a", 200u64),
        ("b", 0),
        ("b", 7),
        ("a", 13),
        ("b", 13),
        ("a", 255),
        ("b", 2),
    ];
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn casez_wildcards_and_priority() {
    let d = design_of(
        "module top_module(input [3:0] r, output reg [1:0] y);
           always @(*) casez (r)
             4'b1???: y = 2'd3;
             4'b01??: y = 2'd2;
             4'b001?: y = 2'd1;
             default: y = 2'd0;
           endcase
         endmodule",
    );
    let schedule: Vec<(&str, u64)> = (0..16).map(|i| ("r", i)).collect();
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn hierarchy_flattened() {
    let d = design_of(
        "module fa(input a, input b, input cin, output s, output cout);
           assign s = a ^ b ^ cin;
           assign cout = (a & b) | (cin & (a ^ b));
         endmodule
         module top_module(input [1:0] x, input [1:0] y, output [2:0] sum);
           wire c0;
           fa f0 (.a(x[0]), .b(y[0]), .cin(1'b0), .s(sum[0]), .cout(c0));
           fa f1 (.a(x[1]), .b(y[1]), .cin(c0), .s(sum[1]), .cout(sum[2]));
         endmodule",
    );
    let mut schedule = Vec::new();
    for x in 0..4u64 {
        for y in 0..4u64 {
            schedule.push(("x", x));
            schedule.push(("y", y));
        }
    }
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn for_loop_unrolled_bit_reverse() {
    let d = design_of(
        "module top_module(input [7:0] a, output reg [7:0] y);
           integer i;
           always @(*) for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];
         endmodule",
    );
    let schedule: Vec<(&str, u64)> = (0..64).map(|i| ("a", i * 5 % 256)).collect();
    assert!(lockstep(&d, &schedule).is_none());
}

#[test]
fn combinational_loop_faults_identically() {
    let file = mage_verilog::parse(
        "module top_module(input a, output y);
           assign y = a ? ~y : 1'b0;
         endmodule",
    )
    .unwrap();
    let d = Arc::new(elaborate(&file, "top_module").unwrap());
    // a=0 settles; a=1 oscillates: both executors must report the same
    // CombinationalLoop fault.
    let fault = lockstep(&d, &[("a", 0), ("a", 1)]);
    assert!(
        matches!(fault, Some(SimError::CombinationalLoop { .. })),
        "{fault:?}"
    );
}

#[test]
fn clock_divider_cascade_identical() {
    let d = design_of(
        "module top_module(input clk, input rst, output reg c0, output reg c1);
           always @(posedge clk or posedge rst)
             if (rst) c0 <= 1'b0; else c0 <= ~c0;
           always @(posedge c0 or posedge rst)
             if (rst) c1 <= 1'b0; else c1 <= ~c1;
         endmodule",
    );
    let mut schedule = vec![("clk", 0u64), ("rst", 1), ("rst", 0)];
    for _ in 0..16 {
        schedule.push(("clk", 1));
        schedule.push(("clk", 0));
    }
    assert!(lockstep(&d, &schedule).is_none());
}
