//! Additional frontend integration tests: syntax corners, diagnostics and
//! semantic checks exercised end-to-end through `compile` + the verifier.

use spt_frontend::{compile, compile_raw, CompileError};

fn err(src: &str) -> CompileError {
    compile(src).unwrap_err()
}

#[test]
fn operator_precedence_against_reference() {
    // Evaluate a gnarly expression both in minic and natively.
    let src = "fn f(a: int, b: int) -> int {
        return a + b * 3 - a % b + (a << 2) % 7 - (a & b) + (a | 1) ^ (b >> 1);
    }";
    let module = compile(src).unwrap();
    let native =
        |a: i64, b: i64| (a + b * 3 - a % b + ((a << 2) % 7) - (a & b) + (a | 1)) ^ (b >> 1);
    for (a, b) in [(5i64, 3i64), (17, 4), (100, 9), (2, 7)] {
        let r = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(a), spt_profile::Val::from_i64(b)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), native(a, b), "a={a}, b={b}");
    }
}

#[test]
fn unary_and_logical_semantics() {
    let src = "fn f(x: int) -> int {
        let a = 0;
        if (!(x > 3) && ~x < 0) { a = 1; }
        if (x == 2 || x == 4) { a = a + 2; }
        return a - -x;
    }";
    let module = compile(src).unwrap();
    let native = |x: i64| {
        let mut a = 0i64;
        if (x <= 3) && !x < 0 {
            a = 1;
        }
        if x == 2 || x == 4 {
            a += 2;
        }
        a - -x
    };
    for x in [0i64, 2, 3, 4, 10] {
        let r = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(x)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), native(x), "x={x}");
    }
}

#[test]
fn float_pipeline_end_to_end() {
    let src = "
        global acc: float = 0.5;
        fn f(n: int) -> float {
            let s = acc;
            for (let i = 0; i < n; i = i + 1) {
                s = s + sqrt(float(i)) * 0.25 + fabs(0.0 - float(i % 3));
            }
            acc = s;
            return s;
        }
    ";
    let module = compile(src).unwrap();
    let r = spt_profile::Interp::new(&module)
        .run(
            "f",
            &[spt_profile::Val::from_i64(10)],
            &mut spt_profile::NoProfiler,
        )
        .unwrap();
    let mut s = 0.5f64;
    for i in 0..10i64 {
        s += (i as f64).sqrt() * 0.25 + (0.0 - (i % 3) as f64).abs();
    }
    assert!((r.ret.unwrap().as_f64() - s).abs() < 1e-12);
}

#[test]
fn diagnostics_carry_positions() {
    let e = err("fn f() -> int {\n    return nope;\n}");
    assert_eq!(e.line, 2);
    assert!(e.col > 0);

    let e = err("fn f( {}");
    assert_eq!(e.line, 1);
}

#[test]
fn duplicate_definitions_rejected() {
    assert!(err("global x: int; global x: int;")
        .message
        .contains("duplicate"));
    assert!(err("fn f() {} fn f() {}").message.contains("duplicate"));
    assert!(err("fn abs(x: int) -> int { return x; }")
        .message
        .contains("reserved"));
}

#[test]
fn array_size_validation() {
    assert!(compile("global a[0]: int;").is_err());
    assert!(compile("global a[1]: int;").is_ok());
}

#[test]
fn deeply_nested_control_flow_compiles_and_runs() {
    let src = "
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                if (i % 2 == 0) {
                    if (i % 3 == 0) {
                        if (i % 5 == 0) { s = s + 100; } else { s = s + 10; }
                    } else {
                        while (s % 7 != 0) { s = s + 1; }
                    }
                } else {
                    s = s + i;
                }
            }
            return s;
        }
    ";
    let module = compile(src).unwrap();
    let native = |n: i64| {
        let mut s = 0i64;
        for i in 0..n {
            if i % 2 == 0 {
                if i % 3 == 0 {
                    if i % 5 == 0 {
                        s += 100;
                    } else {
                        s += 10;
                    }
                } else {
                    while s % 7 != 0 {
                        s += 1;
                    }
                }
            } else {
                s += i;
            }
        }
        s
    };
    for n in [0i64, 1, 7, 30] {
        let r = spt_profile::Interp::new(&module)
            .run(
                "f",
                &[spt_profile::Val::from_i64(n)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().as_i64(), native(n), "n={n}");
    }
}

#[test]
fn shadowing_in_nested_scopes() {
    let src = "
        fn f() -> int {
            let x = 1;
            if (x == 1) {
                let x = 10;
                if (x == 10) {
                    let x = 100;
                    x = x + 1;
                }
                x = x + 2;
            }
            return x;
        }
    ";
    let module = compile(src).unwrap();
    let r = spt_profile::Interp::new(&module)
        .run("f", &[], &mut spt_profile::NoProfiler)
        .unwrap();
    // Inner shadows never touch the outer x.
    assert_eq!(r.ret.unwrap().as_i64(), 1);
}

#[test]
fn compile_raw_keeps_var_slots() {
    let m = compile_raw("fn f() -> int { let x = 1; x = x + 1; return x; }").unwrap();
    assert!(
        !spt_ir::ssa::is_ssa(&m.funcs[0]),
        "raw form keeps VarLoad/VarStore"
    );
    let m2 = compile("fn f() -> int { let x = 1; x = x + 1; return x; }").unwrap();
    assert!(spt_ir::ssa::is_ssa(&m2.funcs[0]));
}

#[test]
fn comments_everywhere() {
    let src = "
        // leading comment
        global /* inline */ g: int; // trailing
        fn f(/* args? none */) -> int {
            /* multi
               line */
            return g; // done
        }
    ";
    assert!(compile(src).is_ok());
}

#[test]
fn for_loop_scoping() {
    // The induction variable is scoped to the loop; reusing the name after
    // is a fresh variable (here: error, since it was never declared again).
    let e = err("fn f() -> int { for (let i = 0; i < 3; i = i + 1) {} return i; }");
    assert!(e.message.contains("unknown name"), "{e}");
}

/// `fn f(n) = n + 1 + … + 1` with `terms` ones, then `tail`.
fn long_chain(terms: usize, tail: &str) -> String {
    let mut src = String::from("fn f(n: int) -> int { return n");
    for _ in 0..terms {
        src.push_str(" + 1");
    }
    src.push_str(tail);
    src
}

/// Runs `f` on a thread with a 2 MiB stack, the size of a test or daemon
/// worker thread.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no stack overflow")
}

/// An operator chain stays flat in the AST and lowers in a loop, so its
/// length costs no stack: parsing, lowering and dropping a 100,000-term
/// chain fit a 2 MiB thread, and the code computes the sum.
#[test]
fn a_long_operator_chain_compiles_on_a_small_stack() {
    let module = on_small_stack(|| compile(&long_chain(100_000, "; }")).map_err(|e| e.to_string()))
        .expect("compiles");
    let r = spt_profile::Interp::new(&module)
        .run(
            "f",
            &[spt_profile::Val::from_i64(5)],
            &mut spt_profile::NoProfiler,
        )
        .unwrap();
    assert_eq!(r.ret.unwrap().as_i64(), 100_005);
}

/// A syntax error after a long chain drops the parsed chain and returns a
/// clean error.
#[test]
fn a_long_operator_chain_then_a_syntax_error_is_a_clean_error() {
    let src = long_chain(100_000, " ) ; }");
    let col = src.len() - 4;
    let e = on_small_stack(move || compile(&src).unwrap_err());
    assert_eq!((e.line, e.col), (1, col));
    assert_eq!(e.message, "expected `;`, found `)`");
}
