//! Extension problems beyond the two evaluated suites.
//!
//! These exercise the substrate more broadly (wide datapaths, nested
//! hierarchies, less common operators) and are available to users via
//! [`crate::all_problems`] / [`crate::by_id`], but belong to neither
//! evaluated suite — the suites (and therefore every reported table
//! and figure) stay frozen.

use crate::problem::{Category, Problem, StimSpec};

const CLOCKED: StimSpec = StimSpec::Clocked {
    cycles: 48,
    reset: Some("rst"),
    reset_active_high: true,
    reset_cycles: 2,
};

/// All extension problems.
pub(crate) static PROBLEMS: &[Problem] = &[
    Problem {
        id: "prob100_and_reduce16",
        category: Category::CombGate,
        difficulty: 0.6,
        top: "top_module",
        spec: "Given a 16-bit input `in`, output `all` (1 when every bit is set) and `none` (1 when no bit is set).",
        golden: "module top_module(input [15:0] in, output all, output none);
  assign all = &in;
  assign none = ~(|in);
endmodule",
        stim: StimSpec::RandomComb { vectors: 128 },
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob101_mux8_case",
        category: Category::CombMux,
        difficulty: 1.2,
        top: "top_module",
        spec: "Implement an 8-to-1 one-bit multiplexer: the 3-bit select `sel` picks the corresponding bit of the 8-bit data input `d`.",
        golden: "module top_module(input [7:0] d, input [2:0] sel, output y);
  assign y = d[sel];
endmodule",
        stim: StimSpec::Exhaustive,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob102_zero_detect16",
        category: Category::CombArith,
        difficulty: 0.8,
        top: "top_module",
        spec: "Given a 16-bit input `in`, output `zero` (1 when the value is exactly 0) and `max` (1 when the value is all ones).",
        golden: "module top_module(input [15:0] in, output zero, output max);
  assign zero = in == 16'h0000;
  assign max = in == 16'hFFFF;
endmodule",
        stim: StimSpec::RandomComb { vectors: 128 },
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob103_add16",
        category: Category::CombArith,
        difficulty: 1.1,
        top: "top_module",
        spec: "Implement a 16-bit adder with carry out: `{cout, sum} = a + b`.",
        golden: "module top_module(input [15:0] a, input [15:0] b, output [15:0] sum, output cout);
  assign {cout, sum} = a + b;
endmodule",
        stim: StimSpec::RandomComb { vectors: 192 },
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob104_leading_one4",
        category: Category::CombCode,
        difficulty: 1.5,
        top: "top_module",
        spec: "Output a 4-bit one-hot mask `y` of the highest set bit of the 4-bit input `in` (0 when `in` is 0).",
        golden: "module top_module(input [3:0] in, output reg [3:0] y);
  always @(*) begin
    casez (in)
      4'b1???: y = 4'b1000;
      4'b01??: y = 4'b0100;
      4'b001?: y = 4'b0010;
      4'b0001: y = 4'b0001;
      default: y = 4'b0000;
    endcase
  end
endmodule",
        stim: StimSpec::Exhaustive,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob105_interleave8",
        category: Category::CombCode,
        difficulty: 1.3,
        top: "top_module",
        spec: "Interleave two 4-bit inputs into an 8-bit output: `y = {a[3], b[3], a[2], b[2], a[1], b[1], a[0], b[0]}`.",
        golden: "module top_module(input [3:0] a, input [3:0] b, output [7:0] y);
  assign y = {a[3], b[3], a[2], b[2], a[1], b[1], a[0], b[0]};
endmodule",
        stim: StimSpec::Exhaustive,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob106_rotl8",
        category: Category::CombArith,
        difficulty: 1.7,
        top: "top_module",
        spec: "Rotate the 8-bit input `in` left by the 3-bit amount `amt` (bits shifted out re-enter at the bottom).",
        golden: "module top_module(input [7:0] in, input [2:0] amt, output [7:0] y);
  wire [15:0] doubled;
  assign doubled = {in, in} << amt;
  assign y = doubled[15:8];
endmodule",
        stim: StimSpec::Exhaustive,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob107_clamp",
        category: Category::CombArith,
        difficulty: 1.4,
        top: "top_module",
        spec: "Clamp the 8-bit input `in` into the inclusive range [lo, hi]: output `in` when inside, the violated bound otherwise (assume lo <= hi).",
        golden: "module top_module(input [7:0] in, input [7:0] lo, input [7:0] hi, output [7:0] y);
  assign y = in < lo ? lo : (in > hi ? hi : in);
endmodule",
        stim: StimSpec::RandomComb { vectors: 192 },
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob108_dff_negedge",
        category: Category::SeqReg,
        difficulty: 0.9,
        top: "top_module",
        spec: "Implement a falling-edge-triggered D flip-flop with synchronous active-high reset: `q` captures `d` on the falling clock edge (reset clears it at that edge).",
        golden: "module top_module(input clk, input rst, input d, output reg q);
  always @(negedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob109_counter_wrap_n",
        category: Category::SeqCount,
        difficulty: 1.8,
        top: "top_module",
        spec: "Implement a parameterizable-feel mod-12 counter: counts 0..11 then wraps; `tick` is 1 during the final count.",
        golden: "module top_module(input clk, input rst, output reg [3:0] q, output tick);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (q == 4'd11) q <= 4'd0;
    else q <= q + 4'd1;
  end
  assign tick = q == 4'd11;
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob110_pwm3",
        category: Category::SeqCount,
        difficulty: 2.0,
        top: "top_module",
        spec: "Implement a 3-bit PWM: a free-running 3-bit counter (synchronous reset) and output `out = counter < duty` for the 3-bit duty-cycle input.",
        golden: "module top_module(input clk, input rst, input [2:0] duty, output out);
  reg [2:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 3'd0;
    else cnt <= cnt + 3'd1;
  end
  assign out = cnt < duty;
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob111_toggle_divider",
        category: Category::SeqCount,
        difficulty: 1.6,
        top: "top_module",
        spec: "Implement a divide-by-2 toggle output plus a 2-bit phase counter: `phase` increments every cycle (synchronous reset) and `half` is phase bit 0 inverted every cycle.",
        golden: "module top_module(input clk, input rst, output [1:0] phase, output half);
  reg [1:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 2'd0;
    else cnt <= cnt + 2'd1;
  end
  assign phase = cnt;
  assign half = cnt[0];
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob112_majority_vote_reg",
        category: Category::SeqReg,
        difficulty: 2.2,
        top: "top_module",
        spec: "Implement a 3-sample majority voter over a serial input: keep the last three samples of `d` in a shift register (synchronous reset) and output the majority value of those three bits.",
        golden: "module top_module(input clk, input rst, input d, output vote);
  reg [2:0] win;
  always @(posedge clk) begin
    if (rst) win <= 3'b000;
    else win <= {win[1:0], d};
  end
  assign vote = (win[0] & win[1]) | (win[1] & win[2]) | (win[0] & win[2]);
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob113_hier_xor_tree",
        category: Category::Hier,
        difficulty: 1.7,
        top: "top_module",
        spec: "Build an 8-bit parity tree from 2-input XOR cell instances (`x2`): output the XOR of all eight bits of `in`.",
        golden: "module x2(input a, input b, output y);
  assign y = a ^ b;
endmodule
module top_module(input [7:0] in, output parity);
  wire p0, p1, p2, p3, q0, q1;
  x2 u0 (.a(in[0]), .b(in[1]), .y(p0));
  x2 u1 (.a(in[2]), .b(in[3]), .y(p1));
  x2 u2 (.a(in[4]), .b(in[5]), .y(p2));
  x2 u3 (.a(in[6]), .b(in[7]), .y(p3));
  x2 v0 (.a(p0), .b(p1), .y(q0));
  x2 v1 (.a(p2), .b(p3), .y(q1));
  x2 w0 (.a(q0), .b(q1), .y(parity));
endmodule",
        stim: StimSpec::Exhaustive,
        in_v1: false,
        in_v2: false,
    },
    Problem {
        id: "prob114_gated_accum",
        category: Category::SeqReg,
        difficulty: 2.4,
        top: "top_module",
        spec: "Implement a gated 8-bit accumulator with clear-on-read semantics: when `rd` is 1 the accumulator resets to the current input `in`; otherwise it adds `in` when `en` is 1 and holds when `en` is 0. Synchronous reset clears it.",
        golden: "module top_module(input clk, input rst, input en, input rd, input [7:0] in, output reg [7:0] acc);
  always @(posedge clk) begin
    if (rst) acc <= 8'h00;
    else if (rd) acc <= in;
    else if (en) acc <= acc + in;
  end
endmodule",
        stim: CLOCKED,
        in_v1: false,
        in_v2: false,
    },
];
