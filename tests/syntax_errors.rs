//! Pins the syntax feedback text: every lexer failure, a set of parser
//! failures whose token text or position is easy to get wrong, and the
//! three corruptions the synthetic model's syntax-repair path applies to
//! each registry golden.
//!
//! A `ParseError`'s `Display` is what the `s = 5` syntax-repair loop and
//! the `fix_syntax` prompt carry back to the model, so its message and
//! its line and column are behaviour, not formatting. Each line of
//! `syntax_errors.expected` holds a case name, then `ok` when the text
//! parses or the error's `Display` when it does not.

use mage::problems::all_problems;
use mage::verilog::parse;

/// Sources that fail in the lexer, one per failure kind.
const LEXER_CASES: [(&str, &str); 6] = [
    (
        "unterminated_block_comment",
        "module m(input a, output y);\n  assign y = a; /* never closed\nendmodule\n",
    ),
    (
        "bad_base",
        "module m(output [3:0] y);\n  assign y = 4'q1;\nendmodule\n",
    ),
    (
        "missing_base",
        "module m(output [3:0] y);\n  assign y = 4';\nendmodule\n",
    ),
    (
        "missing_digits",
        "module m(output [3:0] y);\n  assign y = 4'h;\nendmodule\n",
    ),
    (
        "unexpected_character",
        "module m(input a, output y);\n  assign y = a $ 1;\nendmodule\n",
    ),
    (
        "unexpected_multibyte_character",
        "module m(input a, output y); // naïve\n  /* café */ assign y = a ° a;\nendmodule\n",
    ),
];

/// Sources that fail in the parser: every kind of token in the
/// message, positions after tabs, CRLF line ends and multi-byte text,
/// errors placed at the token after the one at fault, and end of input.
const PARSER_CASES: [(&str, &str); 11] = [
    (
        "found_identifier",
        "module m(input a, output y);\n  assign y = a b;\nendmodule\n",
    ),
    (
        "found_number",
        "module m(input a, output y);\n  assign y = a 4'd1;\nendmodule\n",
    ),
    (
        "found_escaped_identifier",
        "module m(input a, output y);\n  assign y = a \\weird$name ;\nendmodule\n",
    ),
    (
        "bad_literal",
        "module m(output [3:0] y);\n  assign y = 0'd1;\nendmodule\n",
    ),
    ("no_module", "// nothing here\n"),
    (
        "undeclared_header_port",
        "module m(a, y);\n  input a;\nendmodule\n",
    ),
    (
        "signed_port",
        "module m(input signed [3:0] a, output y);\nendmodule\n",
    ),
    (
        "indexed_part_select",
        "module m(input [3:0] a, output [1:0] y);\n  assign y = a[1+:2];\nendmodule\n",
    ),
    (
        "crlf_line_ends",
        "module m(input a,\r\n  output y);\r\n  assign y = a\r\nendmodule\r\n",
    ),
    (
        "tab_columns",
        "module m(input a, output y);\n\tassign y = a ^;\nendmodule\n",
    ),
    (
        "end_of_input_in_block",
        "module m(input a, output reg y);\n  always @(*) begin\n    y = a; // naïve\n",
    ),
];

type Corruption = fn(&str) -> String;

/// The synthetic model's corruptions (`SyntheticModel::corrupt_syntax`),
/// each applied at its first site.
const CORRUPTIONS: [(&str, Corruption); 3] = [
    ("drop_semicolon", |s| s.replacen(';', "", 1)),
    ("endmodul", |s| s.replacen("endmodule", "endmodul", 1)),
    ("drop_begin", |s| s.replacen(" begin", "", 1)),
];

fn outcome(source: &str) -> String {
    match parse(source) {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

/// One line per case, in a fixed order.
fn render() -> String {
    let mut out = String::new();
    for (name, source) in LEXER_CASES {
        out.push_str(&format!("lex/{name} {}\n", outcome(source)));
    }
    for (name, source) in PARSER_CASES {
        out.push_str(&format!("parse/{name} {}\n", outcome(source)));
    }
    for problem in all_problems() {
        for (name, corrupt) in CORRUPTIONS {
            let text = outcome(&corrupt(problem.golden));
            out.push_str(&format!("{}/{name} {text}\n", problem.id));
        }
    }
    out
}

#[test]
fn syntax_feedback_text_matches_the_pin() {
    let expected = include_str!("syntax_errors.expected");
    let actual = render();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
    assert_eq!(
        actual.lines().count(),
        LEXER_CASES.len() + PARSER_CASES.len() + 3 * 82
    );
}
