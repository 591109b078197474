//! Hostile nesting ends as a positioned `ParseError`, never as a stack
//! overflow, on the 2 MiB stack that serve's sim-wave thread and the
//! rayon workers get.
//!
//! For each shape the parser counts (parentheses, unary chains, flat
//! binary chains, ternary chains, nested `begin`, `if`/`else if`
//! chains), the deepest input `parse` accepts is compiled, simulated
//! (boot and one settle) and dropped on such a thread, and one level
//! deeper is an error at the token that crossed `MAX_DEPTH`. Tests run
//! unoptimized, where frames are largest, so passing here sizes the
//! budget for release builds too.

use mage::problems::all_problems;
use mage::sim::Simulator;
use mage::verilog::{nesting_depth, parse, ParseError, MAX_DEPTH};
use std::path::Path;

/// One nesting shape: the source nested `n` times, on line 2, and the
/// column where the level past `MAX_DEPTH` starts when `n` goes one past
/// the deepest accepted input.
struct Shape {
    name: &'static str,
    build: fn(usize) -> String,
    crossing_col: fn(usize) -> usize,
}

const ASSIGN: &str = "module top(input [7:0] a, output [7:0] y);\n  assign y = ";
const ALWAYS: &str = "module top(input [7:0] a, output reg [7:0] y);\n  always @(*) ";

const SHAPES: [Shape; 6] = [
    Shape {
        name: "parentheses",
        build: |n| format!("{ASSIGN}{}a{};\nendmodule\n", "(".repeat(n), ")".repeat(n)),
        // The operand inside the innermost parenthesis.
        crossing_col: |n| 14 + n,
    },
    Shape {
        name: "unary chain",
        build: |n| format!("{ASSIGN}{}a;\nendmodule\n", "~".repeat(n)),
        // The last `~`.
        crossing_col: |n| 13 + n,
    },
    Shape {
        name: "flat binary chain",
        build: |n| format!("{ASSIGN}a{};\nendmodule\n", " + a".repeat(n)),
        // The last `+`.
        crossing_col: |n| 4 * n + 12,
    },
    Shape {
        name: "ternary chain",
        build: |n| format!("{ASSIGN}{}a;\nendmodule\n", "a ? a : ".repeat(n)),
        // The then-branch of the last `?`.
        crossing_col: |n| 8 * n + 10,
    },
    Shape {
        name: "nested begin",
        build: |n| {
            format!(
                "{ALWAYS}{}y = a;{}\nendmodule\n",
                "begin ".repeat(n),
                " end".repeat(n)
            )
        },
        // The innermost assignment's target.
        crossing_col: |n| 15 + 6 * n,
    },
    Shape {
        name: "if/else if chain",
        build: |n| {
            format!(
                "{ALWAYS}{}y = a;\nendmodule\n",
                "if (a) y = a; else ".repeat(n)
            )
        },
        // The target of the last `if`'s assignment.
        crossing_col: |n| 19 * n + 3,
    },
];

/// Run `f` on a fresh thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic");
}

fn too_deep(source: &str) -> ParseError {
    let err = parse(source).expect_err("nested past the budget");
    assert_eq!(
        err.message,
        format!("nesting deeper than {MAX_DEPTH} levels")
    );
    err
}

#[test]
fn the_deepest_accepted_input_runs_and_one_level_deeper_is_an_error() {
    on_small_stack(|| {
        for shape in &SHAPES {
            // Each shape adds exactly one level per repetition.
            let base = nesting_depth(&(shape.build)(1)).expect("parses");
            let n = MAX_DEPTH + 1 - base;
            let deepest = (shape.build)(n);
            assert_eq!(nesting_depth(&deepest), Ok(MAX_DEPTH), "{}", shape.name);
            let design = mage::core::compile(&deepest).expect("compiles");
            let mut sim = Simulator::new(design);
            sim.settle().expect("settles");
            drop(sim);

            let err = too_deep(&(shape.build)(n + 1));
            assert_eq!(
                (err.pos.line, err.pos.col as usize),
                (2, (shape.crossing_col)(n + 1)),
                "{}",
                shape.name
            );
        }
    });
}

#[test]
fn inputs_that_overflowed_the_stack_end_as_parse_errors() {
    on_small_stack(|| {
        for (shape, n) in [(0, 2_000), (1, 3_000), (2, 3_000), (4, 2_000)] {
            let err = too_deep(&(SHAPES[shape].build)(n));
            assert_eq!(err.pos.line, 2, "{}", SHAPES[shape].name);
        }
    });
}

#[test]
fn real_designs_nest_far_below_the_budget() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut sources: Vec<(String, String)> = all_problems()
        .into_iter()
        .map(|p| (p.id.to_string(), p.golden.to_string()))
        .collect();
    for entry in std::fs::read_dir(corpus).expect("corpus directory") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("corpus entry");
        sources.push((path.display().to_string(), text));
    }
    assert!(sources.len() > 82);
    for (name, source) in &sources {
        let depth = nesting_depth(source).expect("parses");
        assert!(4 * depth <= MAX_DEPTH, "{name} nests {depth} deep");
    }
}
