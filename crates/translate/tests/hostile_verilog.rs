//! Hostile Verilog is refused at parse time: each source below used to
//! parse and then panic (or overflow the stack) when the library was
//! elaborated. `VerilogLibrary::parse` must return an error naming the
//! offending line instead.

use mtl_core::elaborate;
use mtl_translate::VerilogLibrary;

/// The parse error for `src`, rendered.
fn parse_error(src: &str) -> String {
    match VerilogLibrary::parse(src) {
        Ok(lib) => panic!("parsed {:?} from:\n{src}", lib.module_names()),
        Err(e) => e.to_string(),
    }
}

fn assert_error(src: &str, line: usize, what: &str) {
    let e = parse_error(src);
    assert!(e.contains(&format!("at line {line}:")), "wrong line in `{e}`");
    assert!(e.contains(what), "`{e}` does not say `{what}`");
}

const CHILD: &str = "\
module Child (clk, reset, x, y);
  input clk;
  input reset;
  input [7:0] x;
  output [7:0] y;
  assign y = x + 8'h01;
endmodule
";

#[test]
fn an_instance_of_an_undeclared_module_is_a_parse_error() {
    let src = "\
module Top (clk, reset, a);
  input clk;
  input reset;
  input [7:0] a;
  Missing m (
    .clk(clk),
    .reset(reset)
  );
endmodule
";
    assert_error(src, 5, "undeclared module `Missing`");
}

#[test]
fn a_pin_that_is_not_a_port_of_the_instantiated_module_is_a_parse_error() {
    let top = "\
module Top (clk, reset, a, b);
  input clk;
  input reset;
  input [7:0] a;
  output [7:0] b;
  Child c (
    .clk(clk),
    .reset(reset),
    .x(a),
    .z(b)
  );
endmodule
";
    assert_error(&format!("{CHILD}{top}"), 13, "`z`, which is not a port of module `Child`");
    // The same hierarchy with the pin named right parses and elaborates.
    let lib = VerilogLibrary::parse(&format!("{CHILD}{}", top.replace(".z(b)", ".y(b)")))
        .expect("a well-formed hierarchy parses");
    elaborate(&lib.top_component()).expect("and elaborates");
}

#[test]
fn an_empty_source_is_a_parse_error() {
    assert_error("", 1, "no module");
    assert_error("// only a comment\n\n", 3, "no module");
}

#[test]
fn a_module_that_contains_itself_is_a_parse_error() {
    let direct = "\
module Loop (clk, reset);
  input clk;
  input reset;
  Loop inner (
    .clk(clk),
    .reset(reset)
  );
endmodule
";
    assert_error(direct, 4, "Loop -> Loop");
    let through = "\
module A (clk, reset);
  input clk;
  input reset;
  B b (.clk(clk), .reset(reset));
endmodule
module B (clk, reset);
  input clk;
  input reset;
  C c (.clk(clk), .reset(reset));
endmodule
module C (clk, reset);
  input clk;
  input reset;
  A a (.clk(clk), .reset(reset));
endmodule
";
    assert_error(through, 14, "A -> B -> C -> A");
}
