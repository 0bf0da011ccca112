//! Property-based tests over the core invariants, driven by the
//! workspace's own deterministic PRNG (no external fuzzing framework):
//!
//! * **Verifier soundness (fuzz)** — for arbitrary instruction sequences,
//!   the verifier never panics, and anything it accepts executes without
//!   violating the interpreter's invariants (traps are fine, panics are
//!   not).
//! * **Pretty-printer fixed point** — printing a parsed program is stable,
//!   which is what the patch generator's text-level diffing relies on.
//! * **Patch-generation round trip** — for a generated family of struct
//!   growth changes, the generated remap preserves live state.
//! * **Workload sampler** — Zipf sampling stays in range and is
//!   deterministic in the seed.
//! * **Optimizer soundness** — folding preserves behaviour and
//!   verifiability.
//! * **Text-format round trip** — `parse(emit(m)) == m` for arbitrary
//!   modules.
//! * **Update soak** — long random patch sequences preserve state exactly.
//! * **Rollback chains** — random version chains applied at update points
//!   under traffic walk back any number of hops, restoring each hop's
//!   snapshot state with every journal lifecycle obeying the phase laws.
//! * **Staged commits** — over random walks of a version history, a patch
//!   staged at some earlier point of the walk commits to exactly what an
//!   unstaged apply produces on a twin process.
//! * **Eager vs first-touch migration** — over random record-table
//!   histories and FlashEd v3↔v4, a twin that remaps records on first
//!   touch answers exactly as a twin that converts them eagerly, move for
//!   move, across forward hops and inverse-patch rollbacks; a snapshot
//!   rollback rewinds only the eager twin's table, as documented.
//!
//! * **Hostile state bytes** — truncated, bit-flipped, spliced and
//!   re-numbered worker-state blobs taken along FlashEd walks are refused
//!   with an error or load to a state that saves back byte-stable: never a
//!   panic, never an id or length other than the one the bytes spell.
//!
//! Every test derives each case's generator from a fixed base seed, so
//! failures reproduce by case index.

use flashed::rng::Rng;
use popcorn::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, TypeAst, UnOp};
use tal::{Field, FnSig, Instr, ModuleBuilder, Ty, TypeDef};
use vm::{LinkMode, Process, Value};

// =========================== verifier fuzz ===========================

/// A positional template for one instruction; jump offsets are made
/// forward-only so accepted programs always terminate (no calls, no
/// backward edges).
#[derive(Debug, Clone)]
struct Tpl {
    opcode: u8,
    operand: u32,
}

fn gen_tpls(rng: &mut Rng, max_len: usize) -> Vec<Tpl> {
    let len = rng.gen_range_usize(1, max_len);
    (0..len)
        .map(|_| Tpl {
            opcode: (rng.next_u64() & 0xFF) as u8,
            operand: (rng.next_u64() & 0xFFFF_FFFF) as u32,
        })
        .collect()
}

fn materialize(i: usize, len: usize, t: &Tpl, tr: tal::TypeRefId, s: tal::StrId) -> Instr {
    let fwd = |op: u32| -> u32 {
        let remaining = (len - i - 1).max(1);
        (i + 1 + (op as usize % remaining)).min(len - 1) as u32
    };
    match t.opcode % 36 {
        0 => Instr::PushInt(i64::from(t.operand % 100)),
        1 => Instr::PushBool(t.operand.is_multiple_of(2)),
        2 => Instr::PushStr(s),
        3 => Instr::PushUnit,
        4 => Instr::PushNull(tr),
        5 => Instr::LoadLocal((t.operand % 4) as u16),
        6 => Instr::StoreLocal((t.operand % 4) as u16),
        7 => Instr::Dup,
        8 => Instr::Pop,
        9 => Instr::Swap,
        10 => Instr::Add,
        11 => Instr::Sub,
        12 => Instr::Mul,
        13 => Instr::Div,
        14 => Instr::Rem,
        15 => Instr::Neg,
        16 => Instr::Eq,
        17 => Instr::Lt,
        18 => Instr::Ge,
        19 => Instr::And,
        20 => Instr::Not,
        21 => Instr::Concat,
        22 => Instr::StrLen,
        23 => Instr::Substr,
        24 => Instr::CharAt,
        25 => Instr::StrEq,
        26 => Instr::StrFind,
        27 => Instr::IntToStr,
        28 => Instr::StrToInt,
        29 => Instr::Jump(fwd(t.operand)),
        30 => Instr::JumpIfFalse(fwd(t.operand)),
        31 => Instr::NewRecord(tr),
        32 => Instr::GetField(tr, (t.operand % 2) as u16),
        33 => Instr::IsNull(tr),
        34 => Instr::NewArray(Ty::Int),
        35 => Instr::Ret,
        _ => unreachable!(),
    }
}

fn fuzz_module(tpls: &[Tpl]) -> tal::Module {
    let mut b = ModuleBuilder::new("fuzz", "v1");
    b.def_type(TypeDef::new(
        "t",
        vec![Field::new("a", Ty::Int), Field::new("b", Ty::Str)],
    ));
    let tr = b.type_ref("t");
    let s = b.string("seed");
    let len = tpls.len() + 1;
    b.function("f", FnSig::new(vec![], Ty::Int), |f| {
        f.local(Ty::Int); // local 0
        f.local(Ty::Bool); // local 1
        f.local(Ty::Str); // local 2
        f.local(Ty::named("t")); // local 3
        for (i, t) in tpls.iter().enumerate() {
            f.emit(materialize(i, len, t, tr, s));
        }
        f.emit(Instr::Ret);
    });
    b.finish()
}

/// The verifier must never panic, and verified code must never panic
/// the interpreter (C-like traps are allowed).
#[test]
fn verifier_soundness_fuzz() {
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0xF00D ^ case);
        let tpls = gen_tpls(&mut rng, 47);
        let m = fuzz_module(&tpls);
        if tal::verify_module(&m, &tal::NoAmbientTypes).is_ok() {
            let mut p = Process::new(LinkMode::Static);
            p.load_module(&m).expect("verified modules link");
            // Must not panic; trapping is allowed.
            let _ = p.call("f", vec![]);
        }
    }
}

/// Accepted-and-executed fraction sanity: straight-line integer code
/// always verifies and runs.
#[test]
fn straightline_int_code_verifies() {
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0xBEEF ^ case);
        let n = rng.gen_range_usize(1, 19);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 99)).collect();
        let mut b = ModuleBuilder::new("sl", "v1");
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(0));
            for v in &vals {
                f.emit(Instr::PushInt(*v));
                f.emit(Instr::Add);
            }
            f.emit(Instr::Ret);
        });
        let m = b.finish();
        tal::verify_module(&m, &tal::NoAmbientTypes).expect("verifies");
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&m).unwrap();
        let expect: i64 = vals.iter().sum();
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(expect));
    }
}

// ======================= pretty-printer fixed point =======================

fn gen_ident(rng: &mut Rng) -> String {
    let len = rng.gen_range_usize(1, 6);
    let s: String = (0..len)
        .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
        .collect();
    format!("v_{s}")
}

fn gen_type_ast(rng: &mut Rng, depth: usize) -> TypeAst {
    match rng.gen_range_usize(0, if depth == 0 { 4 } else { 6 }) {
        0 => TypeAst::Int,
        1 => TypeAst::Bool,
        2 => TypeAst::Str,
        3 => TypeAst::Unit,
        4 if depth > 0 => TypeAst::Array(Box::new(gen_type_ast(rng, depth - 1))),
        5 if depth > 0 => {
            let nparams = rng.gen_range_usize(0, 2);
            let params = (0..nparams).map(|_| gen_type_ast(rng, depth - 1)).collect();
            TypeAst::Fn(params, Box::new(gen_type_ast(rng, depth - 1)))
        }
        _ => TypeAst::Named(gen_ident(rng)),
    }
}

fn gen_literal_string(rng: &mut Rng) -> String {
    const CHARSET: &[u8] = b"abcXYZ019 _.:/-";
    let len = rng.gen_range_usize(0, 12);
    (0..len).map(|_| *rng.choose(CHARSET) as char).collect()
}

fn gen_expr(rng: &mut Rng, depth: usize) -> Expr {
    let e = |kind| Expr { line: 0, kind };
    if depth == 0 {
        return match rng.gen_range_usize(0, 6) {
            0 => e(ExprKind::Int(rng.gen_range_i64(0, 999_999))),
            1 => e(ExprKind::Str(gen_literal_string(rng))),
            2 => e(ExprKind::Bool(rng.gen_bool())),
            3 => e(ExprKind::Null),
            4 => e(ExprKind::Var(gen_ident(rng))),
            5 => e(ExprKind::FnRef(gen_ident(rng))),
            _ => e(ExprKind::NewArray(gen_type_ast(rng, 1))),
        };
    }
    match rng.gen_range_usize(0, 7) {
        0 => {
            let op = if rng.gen_bool() { UnOp::Neg } else { UnOp::Not };
            e(ExprKind::Unary(op, Box::new(gen_expr(rng, depth - 1))))
        }
        1 => {
            let op = *rng.choose(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
                BinOp::Or,
            ]);
            e(ExprKind::Binary(
                op,
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            ))
        }
        2 => {
            let nargs = rng.gen_range_usize(0, 2);
            let args = (0..nargs).map(|_| gen_expr(rng, depth - 1)).collect();
            e(ExprKind::Call(
                Box::new(e(ExprKind::Var(gen_ident(rng)))),
                args,
            ))
        }
        3 => e(ExprKind::Field(
            Box::new(gen_expr(rng, depth - 1)),
            gen_ident(rng),
        )),
        4 => e(ExprKind::Index(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        )),
        5 => {
            let nfields = rng.gen_range_usize(0, 2);
            let fields = (0..nfields)
                .map(|_| (gen_ident(rng), gen_expr(rng, depth - 1)))
                .collect();
            e(ExprKind::Record(gen_ident(rng), fields))
        }
        _ => {
            let nelems = rng.gen_range_usize(1, 2);
            let elems = (0..nelems).map(|_| gen_expr(rng, depth - 1)).collect();
            e(ExprKind::ArrayLit(elems))
        }
    }
}

fn gen_stmt(rng: &mut Rng, depth: usize) -> Stmt {
    let s = |kind| Stmt { line: 0, kind };
    let leaf_choices = 8;
    let choice = rng.gen_range_usize(
        0,
        if depth == 0 {
            leaf_choices - 1
        } else {
            leaf_choices + 1
        },
    );
    match choice {
        0 => s(StmtKind::Var {
            name: gen_ident(rng),
            ty: gen_type_ast(rng, 2),
            init: gen_expr(rng, 2),
        }),
        1 => s(StmtKind::Assign {
            target: Expr {
                line: 0,
                kind: ExprKind::Var(gen_ident(rng)),
            },
            value: gen_expr(rng, 2),
        }),
        2 => s(StmtKind::Return(Some(gen_expr(rng, 2)))),
        3 => s(StmtKind::Return(None)),
        4 => s(StmtKind::Update),
        5 => s(StmtKind::Break),
        6 => s(StmtKind::Continue),
        7 => s(StmtKind::Expr(gen_expr(rng, 2))),
        8 => {
            let nthen = rng.gen_range_usize(0, 2);
            let nels = rng.gen_range_usize(0, 1);
            s(StmtKind::If {
                cond: gen_expr(rng, 2),
                then: (0..nthen).map(|_| gen_stmt(rng, depth - 1)).collect(),
                els: (0..nels).map(|_| gen_stmt(rng, depth - 1)).collect(),
            })
        }
        _ => {
            let nbody = rng.gen_range_usize(0, 2);
            s(StmtKind::While {
                cond: gen_expr(rng, 2),
                body: (0..nbody).map(|_| gen_stmt(rng, depth - 1)).collect(),
            })
        }
    }
}

fn gen_program(rng: &mut Rng) -> Program {
    let mut items = Vec::new();
    for _ in 0..rng.gen_range_usize(0, 1) {
        let nfields = rng.gen_range_usize(0, 3);
        items.push(popcorn::ast::Item::Struct(popcorn::ast::StructDef {
            name: gen_ident(rng),
            fields: (0..nfields)
                .map(|_| (gen_ident(rng), gen_type_ast(rng, 2)))
                .collect(),
            line: 0,
        }));
    }
    for _ in 0..rng.gen_range_usize(0, 2) {
        let nparams = rng.gen_range_usize(0, 2);
        let nstmts = rng.gen_range_usize(0, 4);
        items.push(popcorn::ast::Item::Fun(popcorn::ast::FunDef {
            name: gen_ident(rng),
            params: (0..nparams)
                .map(|_| (gen_ident(rng), gen_type_ast(rng, 2)))
                .collect(),
            ret: gen_type_ast(rng, 2),
            body: (0..nstmts).map(|_| gen_stmt(rng, 2)).collect(),
            line: 0,
        }));
    }
    Program { items }
}

/// pretty ∘ parse is a fixed point of pretty — the canonical-form
/// assumption the patch generator's diff relies on.
#[test]
fn pretty_print_is_a_fixed_point() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0xCAFE ^ case);
        let p = gen_program(&mut rng);
        let text1 = popcorn::pretty::program(&p);
        let reparsed = popcorn::parse(&text1)
            .unwrap_or_else(|e| panic!("pretty output must parse: {e}\n---\n{text1}"));
        let text2 = popcorn::pretty::program(&reparsed);
        assert_eq!(text1, text2);
    }
}

// ===================== patch generation round trip =====================

/// For a generated family of struct-growth changes, the generated remap
/// preserves all carried fields over any live population.
#[test]
fn patchgen_struct_growth_preserves_state() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0xD1CE ^ case);
        let n = rng.gen_range_usize(0, 39);
        let nextra = rng.gen_range_usize(1, 3);
        let mut seen = std::collections::BTreeSet::new();
        let extras: Vec<(String, &str)> = (0..nextra)
            .map(|_| {
                let name: String = {
                    let len = rng.gen_range_usize(1, 5);
                    (0..len)
                        .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                        .collect()
                };
                let ty = *rng.choose(&["int", "bool", "string"]);
                (format!("f_{name}"), ty)
            })
            .filter(|(name, _)| seen.insert(name.clone()))
            .collect();

        let v1 = r#"
            struct rec { id: int }
            global data: [rec] = new [rec];
            fun fill(n: int): int {
                var i: int = 0;
                while (i < n) { push(data, rec { id: i * 3 }); i = i + 1; }
                return len(data);
            }
            fun sum(): int {
                var s: int = 0;
                var i: int = 0;
                while (i < len(data)) { s = s + data[i].id; i = i + 1; }
                return s;
            }
        "#;
        let extra_decls: Vec<String> = extras.iter().map(|(n, t)| format!("{n}: {t}")).collect();
        let extra_inits: Vec<String> = extras
            .iter()
            .map(|(n, t)| {
                let d = match *t {
                    "int" => "0",
                    "bool" => "false",
                    _ => "\"\"",
                };
                format!("{n}: {d}")
            })
            .collect();
        let v2 = format!(
            r#"
            struct rec {{ id: int, {decls} }}
            global data: [rec] = new [rec];
            fun fill(n: int): int {{
                var i: int = 0;
                while (i < n) {{ push(data, rec {{ id: i * 3, {inits} }}); i = i + 1; }}
                return len(data);
            }}
            fun sum(): int {{
                var s: int = 0;
                var i: int = 0;
                while (i < len(data)) {{ s = s + data[i].id; i = i + 1; }}
                return s;
            }}
            "#,
            decls = extra_decls.join(", "),
            inits = extra_inits.join(", "),
        );

        let gen = dsu_core::PatchGen::new()
            .generate(v1, &v2, "v1", "v2")
            .unwrap();
        assert_eq!(gen.stats.types_changed, 1);
        assert_eq!(gen.stats.types_remapped, 1);

        let m = popcorn::compile(v1, "app", "v1", &popcorn::Interface::new()).unwrap();
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&m).unwrap();
        p.call("fill", vec![Value::Int(n as i64)]).unwrap();
        let before = p.call("sum", vec![]).unwrap();
        dsu_core::apply_patch(&mut p, &gen.patch, dsu_core::UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("sum", vec![]).unwrap(), before);
    }
}

// ============================ workload sampler ============================

#[test]
fn zipf_samples_in_range_and_deterministic() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x21BF ^ case);
        let n = rng.gen_range_usize(1, 199);
        let alpha = rng.gen_f64() * 2.0;
        let seed = rng.next_u64();
        let z = flashed::Zipf::new(n, alpha);
        let mut r1 = Rng::seed_from_u64(seed);
        let mut r2 = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            let a = z.sample(&mut r1);
            let b = z.sample(&mut r2);
            assert!(a < n);
            assert_eq!(a, b);
        }
    }
}

// =========================== optimizer soundness ===========================

/// Folding random integer expression chains preserves the result.
#[test]
fn optimizer_preserves_straightline_arithmetic() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0911 ^ case);
        let nops = rng.gen_range_usize(1, 23);
        let ops: Vec<(u8, i64)> = (0..nops)
            .map(|_| ((rng.next_u64() % 6) as u8, rng.gen_range_i64(1, 49)))
            .collect();
        let start = rng.gen_range_i64(0, 999);
        let mut b = ModuleBuilder::new("o", "v1");
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(start));
            for (op, v) in &ops {
                f.emit(Instr::PushInt(*v));
                f.emit(match op % 6 {
                    0 => Instr::Add,
                    1 => Instr::Sub,
                    2 => Instr::Mul,
                    3 => Instr::Div,
                    4 => Instr::Rem,
                    _ => Instr::Add,
                });
            }
            f.emit(Instr::Ret);
        });
        let plain = b.finish();
        let mut opt = plain.clone();
        let stats = tal::opt::optimize_module(&mut opt);
        tal::verify_module(&opt, &tal::NoAmbientTypes).expect("optimised verifies");
        // Everything here is constant, so the whole chain must fold away.
        assert!(opt.function("f").unwrap().code.len() <= 2, "{stats:?}");

        let mut p1 = Process::new(LinkMode::Static);
        p1.load_module(&plain).unwrap();
        let mut p2 = Process::new(LinkMode::Static);
        p2.load_module(&opt).unwrap();
        assert_eq!(p1.call("f", vec![]).unwrap(), p2.call("f", vec![]).unwrap());
    }
}

/// The optimizer never breaks verification or changes behaviour on
/// arbitrary *verified* fuzz programs.
#[test]
fn optimizer_sound_on_fuzzed_verified_code() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x5EED ^ case);
        let tpls = gen_tpls(&mut rng, 47);
        let plain = fuzz_module(&tpls);
        if tal::verify_module(&plain, &tal::NoAmbientTypes).is_ok() {
            let mut opt = plain.clone();
            tal::opt::optimize_module(&mut opt);
            tal::verify_module(&opt, &tal::NoAmbientTypes)
                .expect("optimisation must preserve verifiability");
            let mut p1 = Process::new(LinkMode::Static);
            p1.load_module(&plain).unwrap();
            let mut p2 = Process::new(LinkMode::Static);
            p2.load_module(&opt).unwrap();
            let r1 = p1.call("f", vec![]);
            let r2 = p2.call("f", vec![]);
            assert_eq!(r1, r2, "optimised behaviour diverged");
        }
    }
}

// ======================= text format round trip =======================

/// `tal::text::parse(emit(m)) == m` for arbitrary (even ill-typed)
/// modules built from the fuzz instruction pool — the format is a
/// faithful carrier, independent of verification.
#[test]
fn tal_text_round_trips_fuzzed_modules() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x7E87 ^ case);
        let tpls = gen_tpls(&mut rng, 39);
        let mut b = ModuleBuilder::new("fz", "v9");
        b.def_type(TypeDef::new(
            "t",
            vec![Field::new("a", Ty::Int), Field::new("b", Ty::Str)],
        ));
        let tr = b.type_ref("t");
        let s = b.string("seed \"quoted\"\n");
        let len = tpls.len() + 1;
        b.function("f", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
            f.local(Ty::array(Ty::named("t")));
            for (i, t) in tpls.iter().enumerate() {
                f.emit(materialize(i, len, t, tr, s));
            }
            f.emit(Instr::Ret);
        });
        b.global("g", Ty::Str, vec![Instr::PushStr(s), Instr::Ret]);
        let m = b.finish();
        let text = tal::text::emit(&m);
        let back = tal::text::parse(&text)
            .unwrap_or_else(|e| panic!("emit output must parse: {e}\n---\n{text}"));
        assert_eq!(m, back);
    }
}

// ============================ update soak ============================

/// Soak: a long random sequence of generated patches (body tweaks and
/// struct growth) applied to one process; after every patch the
/// process must agree with a freshly booted build of the same source.
#[test]
fn soak_many_sequential_patches() {
    for case in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0x50AC ^ case);
        let ndeltas = rng.gen_range_usize(4, 11);
        let deltas: Vec<(i64, bool)> = (0..ndeltas)
            .map(|_| (rng.gen_range_i64(1, 49), rng.gen_bool()))
            .collect();

        let mk_src = |mult: i64, fields: usize| -> String {
            let extra_decl: Vec<String> = (0..fields).map(|i| format!("x{i}: int")).collect();
            let extra_init: Vec<String> = (0..fields).map(|i| format!("x{i}: {i}")).collect();
            let comma = if fields > 0 { ", " } else { "" };
            format!(
                r#"
                struct rec {{ id: int{comma}{decls} }}
                global data: [rec] = new [rec];
                fun add(n: int): unit {{ push(data, rec {{ id: n * {mult}{comma}{inits} }}); }}
                fun sum(): int {{
                    var s: int = 0;
                    var i: int = 0;
                    while (i < len(data)) {{ s = s + data[i].id; i = i + 1; }}
                    return s;
                }}
                "#,
                decls = extra_decl.join(", "),
                inits = extra_init.join(", "),
            )
        };

        let mut mult = 1i64;
        let mut fields = 0usize;
        let mut src = mk_src(mult, fields);
        let mut proc = {
            let m = popcorn::compile(&src, "soak", "v1", &popcorn::Interface::new()).unwrap();
            let mut p = Process::new(LinkMode::Updateable);
            p.load_module(&m).unwrap();
            p
        };
        let mut expected_sum = 0i64;
        let mut n = 0i64;

        for (i, (new_mult, grow)) in deltas.iter().enumerate() {
            // Mutate state on the current version.
            n += 1;
            proc.call("add", vec![Value::Int(n)]).unwrap();
            expected_sum += n * mult;

            // Generate and apply the next patch.
            mult = *new_mult;
            if *grow {
                fields += 1;
            }
            let next = mk_src(mult, fields);
            let gen = dsu_core::PatchGen::new()
                .generate(&src, &next, &format!("v{i}"), &format!("v{}", i + 1))
                .unwrap();
            dsu_core::apply_patch(&mut proc, &gen.patch, dsu_core::UpdatePolicy::default())
                .unwrap();
            src = next;

            // State must be exactly preserved across every patch.
            assert_eq!(proc.call("sum", vec![]).unwrap(), Value::Int(expected_sum));
        }
        // Post-soak sanity: new adds use the final multiplier.
        proc.call("add", vec![Value::Int(100)]).unwrap();
        expected_sum += 100 * mult;
        assert_eq!(proc.call("sum", vec![]).unwrap(), Value::Int(expected_sum));
        // And old code versions can be garbage collected without harm.
        proc.collect_code();
        assert_eq!(proc.call("sum", vec![]).unwrap(), Value::Int(expected_sum));
    }
}

// ========================== rollback chains ==========================

/// Random version chains, forward then backward: apply `k` generated
/// updates (multiplier tweaks, struct growth) at update points while
/// traffic keeps mutating state, then walk the snapshot-ring rollback
/// chain back `j ≤ k` hops — still under traffic. After every hop the
/// guest answers with the restored version's semantics and the expected
/// state: snapshots share guest values (`Rc` cells), and a struct change
/// remaps records instead of copying the table, so every restore keeps
/// all traffic served since — records in a newer layout convert back on
/// first touch. Every journal lifecycle (forward and backward) passes the
/// phase-sum validator at every hop.
#[test]
fn rollback_chains_restore_every_version_under_traffic() {
    use dsu_obs::journal::validate_lifecycle;
    use dsu_obs::Journal;

    let mk_src = |mult: i64, fields: usize| -> String {
        let extra_decl: Vec<String> = (0..fields).map(|i| format!("x{i}: int")).collect();
        let extra_init: Vec<String> = (0..fields).map(|i| format!("x{i}: {i}")).collect();
        let comma = if fields > 0 { ", " } else { "" };
        format!(
            r#"
            struct rec {{ id: int{comma}{decls} }}
            global data: [rec] = new [rec];
            fun add(n: int): unit {{ push(data, rec {{ id: n * {mult}{comma}{inits} }}); }}
            fun mult_tag(): int {{ return {mult}; }}
            fun sum(): int {{
                var s: int = 0;
                var i: int = 0;
                while (i < len(data)) {{ s = s + data[i].id; i = i + 1; }}
                return s;
            }}
            fun pump(k: int): int {{
                var i: int = 0;
                while (i < k) {{ add(i + 1); update; i = i + 1; }}
                return sum();
            }}
            "#,
            decls = extra_decl.join(", "),
            inits = extra_init.join(", "),
        )
    };

    for case in 0..10u64 {
        let mut rng = Rng::seed_from_u64(0xC4A1 ^ case);
        let k = rng.gen_range_usize(2, 4); // forward hops (ring depth is 4)
        let mults: Vec<i64> = std::iter::once(1)
            .chain((0..k).map(|_| rng.gen_range_i64(2, 49)))
            .collect();
        let mut fields = vec![0usize];
        for _ in 0..k {
            fields.push(fields.last().unwrap() + usize::from(rng.gen_bool()));
        }

        let journal = Journal::new();
        let src = mk_src(mults[0], fields[0]);
        let m = popcorn::compile(&src, "chain", "v1", &popcorn::Interface::new()).unwrap();
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&m).unwrap();
        let mut up = dsu_core::Updater::new();
        up.set_journal(journal.clone(), Some(case as usize));

        // Forward: k updates, each landing at the first update point of a
        // pump run, with more traffic after it in the same run. The
        // snapshot each hop restores is the state at its apply instant.
        let mut sum = 0i64;
        let mut prev_src = src;
        for step in 0..k {
            let t = rng.gen_range_usize(2, 4) as i64;
            let gen = dsu_core::PatchGen::new()
                .generate(
                    &prev_src,
                    &mk_src(mults[step + 1], fields[step + 1]),
                    &format!("v{}", step + 1),
                    &format!("v{}", step + 2),
                )
                .unwrap();
            up.enqueue(&mut p, gen.patch);
            let got = up.run(&mut p, "pump", vec![Value::Int(t)]).unwrap();
            // First iteration runs the old version's add, then the patch
            // applies at the update point; the rest run the new version.
            sum += mults[step];
            for r in 2..=t {
                sum += r * mults[step + 1];
            }
            assert_eq!(got, Value::Int(sum), "case {case} forward step {step}");
            prev_src = mk_src(mults[step + 1], fields[step + 1]);
        }
        assert_eq!(up.snapshot_transitions().len(), k);

        // Backward: j ≤ k single hops, each applied at an update point of
        // a pump run that serves one more request first.
        let j = rng.gen_range_usize(1, k);
        for hop in 0..j {
            let at = k - hop; // walking v(at+1) -> v(at)
            assert_eq!(up.enqueue_rollback_chain(&mut p, 1), 1);
            let got = up.run(&mut p, "pump", vec![Value::Int(1)]).unwrap();
            // The pump's own add lands before the restore, on the
            // not-yet-rolled-back version.
            sum += mults[at];
            let expect = sum;
            assert_eq!(got, Value::Int(expect), "case {case} hop {hop}");
            assert_eq!(p.call("sum", vec![]).unwrap(), Value::Int(expect));
            // The guest answers with the restored version's semantics.
            assert_eq!(
                p.call("mult_tag", vec![]).unwrap(),
                Value::Int(mults[at - 1])
            );
            assert_eq!(up.snapshot_transitions().len(), at - 1);
            // Phase-sum laws hold for every lifecycle at every hop.
            for id in journal.update_ids() {
                validate_lifecycle(&journal.events_for(id)).unwrap();
            }
        }

        // The process keeps serving traffic on whatever version it landed.
        let t = 3i64;
        let got = up.run(&mut p, "pump", vec![Value::Int(t)]).unwrap();
        for r in 1..=t {
            sum += r * mults[k - j];
        }
        assert_eq!(got, Value::Int(sum));
    }
}

// ========================== staged commits ==========================

/// Random walks over a six-version history — forward hops, inverse-patch
/// rollbacks, snapshot restores, and now and then a patch that does not
/// belong where the walk stands — on twin processes: one commits patches
/// that were *staged at a random earlier point of the walk* (against
/// whatever the process bound then, so certificates hold, go stale, or
/// were never issued), the other applies them unstaged. After every move
/// the twins agree on the outcome (the same success, or the same typed
/// error), on their interface, and on what the guest answers. The
/// staleness check is the whole safety argument of staging; this is its
/// differential test.
#[test]
fn staged_commits_equal_unstaged_applies_on_seeded_walks() {
    use dsu_core::{apply_patch, commit, interface_of, stage, UpdatePolicy, Verification};
    use vm::ProcessTypes;

    // `a` scales in `add`, `s` in `sum`, `fields` grows `rec`. A hop that
    // moves only `s` names `rec` without building one, so it verifies
    // against any layout — a stale certificate that re-verifies fine; a
    // hop that moves `a` builds a `rec` and verifies against one layout.
    let mk_src = |(a, s, fields): (i64, i64, usize)| -> String {
        let decls: String = (0..fields).map(|i| format!(", x{i}: int")).collect();
        let inits: String = (0..fields).map(|i| format!(", x{i}: {i}")).collect();
        format!(
            r#"
            struct rec {{ id: int{decls} }}
            global data: [rec] = new [rec];
            fun add(n: int): unit {{ push(data, rec {{ id: n * {a}{inits} }}); }}
            fun sum(): int {{
                var t: int = 0;
                var i: int = 0;
                while (i < len(data)) {{ t = t + data[i].id * {s}; i = i + 1; }}
                return t;
            }}
            "#
        )
    };
    let history = [
        (1, 1, 0),
        (3, 1, 0),
        (3, 1, 1),
        (3, 2, 1),
        (3, 2, 2),
        (5, 3, 2),
    ];
    let srcs: Vec<String> = history.iter().map(|&v| mk_src(v)).collect();
    let top = srcs.len() - 1;
    let gen = |from: usize, to: usize| {
        dsu_core::PatchGen::new()
            .generate(
                &srcs[from],
                &srcs[to],
                &format!("v{from}"),
                &format!("v{to}"),
            )
            .unwrap()
            .patch
    };
    // patches[i]: forward hop i → i+1; patches[top + i]: inverse i+1 → i.
    let patches: Vec<dsu_core::Patch> = (0..top)
        .map(|i| gen(i, i + 1))
        .chain((0..top).map(|i| gen(i + 1, i)))
        .collect();

    let policy = UpdatePolicy::default();
    let boot = || {
        let m = popcorn::compile(&srcs[0], "walk", "v0", &popcorn::Interface::new()).unwrap();
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&m).unwrap();
        p
    };
    // What the walks exercised, over all seeds: (held, re-verified, no
    // certificate, rejected).
    let mut seen = [0usize; 4];

    for case in 0..150u64 {
        let mut rng = Rng::seed_from_u64(0x57A6ED ^ case);
        let (mut a, mut b) = (boot(), boot());
        let stage_at = |p: &Process, i: usize| stage(patches[i].clone(), &ProcessTypes(p), policy);
        // Every patch is staged before the walk starts, against v0…
        let mut staged: Vec<_> = (0..patches.len()).map(|i| stage_at(&a, i)).collect();
        let mut at = 0usize;
        let mut snapshots = Vec::new(); // (a's, b's, version) before a hop

        for step in 0..14 {
            // …and a few are staged again wherever the walk stands.
            for _ in 0..rng.gen_range_usize(0, 3) {
                let i = rng.gen_range_usize(0, patches.len() - 1);
                staged[i] = stage_at(&a, i);
            }
            let ctx = format!("case {case} step {step} at v{at}");
            let roll = rng.gen_range_usize(0, 9);
            if roll == 0 && !snapshots.is_empty() {
                let (sa, sb, v) = snapshots.pop().unwrap();
                a.restore(sa);
                b.restore(sb);
                at = v;
            } else {
                let (i, to) = match roll {
                    1 => (rng.gen_range_usize(0, patches.len() - 1), at), // a stranger
                    _ if at == top || (at > 0 && roll < 5) => (top + at - 1, at - 1),
                    _ => (at, at + 1),
                };
                let before = (a.snapshot(), b.snapshot(), at);
                let got = commit(&mut a, &staged[i], policy);
                let want = apply_patch(&mut b, &patches[i], policy);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(w.verification, Verification::NoCertificate);
                        assert_eq!(
                            (g.functions_replaced, g.globals_transformed, g.patch_bytes),
                            (w.functions_replaced, w.globals_transformed, w.patch_bytes),
                            "{ctx}"
                        );
                        seen[match g.verification {
                            Verification::CertificateHeld => 0,
                            Verification::Reverified { .. } => 1,
                            Verification::NoCertificate => 2,
                            Verification::Skipped => unreachable!("the policy verifies"),
                        }] += 1;
                        snapshots.push(before);
                        at = to;
                    }
                    (Err(g), Err(w)) => {
                        assert_eq!(g, w, "{ctx}");
                        seen[3] += 1;
                    }
                    _ => panic!("{ctx}: staged {got:?}, unstaged {want:?}"),
                }
            }
            assert_eq!(interface_of(&a), interface_of(&b), "{ctx}");
            let n = Value::Int(step as i64 + 1);
            assert_eq!(
                a.call("add", vec![n.clone()]),
                b.call("add", vec![n]),
                "{ctx}"
            );
            assert_eq!(a.call("sum", vec![]), b.call("sum", vec![]), "{ctx}");
        }
    }
    assert!(seen.iter().all(|&n| n >= 20), "walks too tame: {seen:?}");
}

// ==================== eager vs first-touch migration ====================

/// A field of the generated record type.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Str,
    Arr,
    Box,
}

/// One version of the record-table program: `rec`'s non-`id` fields, in
/// declaration order, each with a name unique across the history (a
/// dropped field that comes back is a new field).
fn table_src(version: usize, fields: &[(String, Kind)]) -> String {
    let ty = |k: Kind| match k {
        Kind::Int => "int",
        Kind::Str => "string",
        Kind::Arr => "[int]",
        Kind::Box => "box",
    };
    let decls: String = fields
        .iter()
        .map(|(f, k)| format!(", {f}: {}", ty(*k)))
        .collect();
    let mut inits = String::new();
    let mut writes = String::new();
    let mut digest = String::new();
    for (j, (f, k)) in fields.iter().enumerate() {
        let w = j + 2;
        let (init, write, add) = match k {
            Kind::Int => (
                format!("n + {j}"),
                format!("n * 2 + {j}"),
                format!("d = d + r.{f} * {w};"),
            ),
            Kind::Str => (
                "itoa(n)".to_string(),
                "itoa(n) + \"w\"".to_string(),
                format!("d = d + len(r.{f}) * {w};"),
            ),
            Kind::Arr => (
                format!("[n, {j}]"),
                "[n]".to_string(),
                format!("d = d + len(r.{f}) * {w}; if (len(r.{f}) > 0) {{ d = d + r.{f}[0]; }}"),
            ),
            Kind::Box => (
                format!("box {{ v: n + {j} }}"),
                "box { v: n * 3 }".to_string(),
                format!("if (r.{f} == null) {{ d = d + {w}; }} else {{ d = d + r.{f}.v * {w}; }}"),
            ),
        };
        inits.push_str(&format!(", {f}: {init}"));
        writes.push_str(&format!(" r.{f} = {write};"));
        digest.push_str(&format!("\n                {add}"));
    }
    format!(
        r#"
        struct box {{ v: int }}
        struct rec {{ id: int{decls} }}
        global data: [rec] = new [rec];
        fun vtag(): int {{ return {version}; }}
        fun add(n: int): int {{ push(data, rec {{ id: n{inits} }}); return len(data); }}
        fun count(): int {{ return len(data); }}
        fun digest(i: int): int {{
            var r: rec = data[i];
            var d: int = r.id;{digest}
            return d;
        }}
        fun scan(from: int, k: int): int {{
            var s: int = 0;
            var i: int = from;
            while (i < from + k) {{ if (i < len(data)) {{ s = s + digest(i); }} i = i + 1; }}
            return s;
        }}
        fun write(i: int, n: int): int {{ var r: rec = data[i]; r.id = n;{writes} return 0; }}
        fun ids(): int {{
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) {{ s = s + data[i].id; i = i + 1; }}
            return s;
        }}
        fun reset(n: int): int {{
            data = new [rec];
            var i: int = 0;
            while (i < n) {{ add(i * 3 + 1); i = i + 1; }}
            return n;
        }}
        "#
    )
}

/// The conversion a remap derives for `data: [rec]`, written as the
/// hand-written transformer an eager twin runs in the pause.
fn table_xform(name: &str, old: &[(String, Kind)], new: &[(String, Kind)]) -> String {
    let fields: String = new
        .iter()
        .map(|(f, k)| {
            let carried = old.iter().any(|(o, _)| o == f);
            let v = match (carried, k) {
                (true, _) => format!("o.{f}"),
                (false, Kind::Int) => "0".to_string(),
                (false, Kind::Str) => "\"\"".to_string(),
                (false, Kind::Arr) => "new [int]".to_string(),
                (false, Kind::Box) => "null".to_string(),
            };
            format!(", {f}: {v}")
        })
        .collect();
    format!(
        r#"
        fun {name}(old: [rec__old]): [rec] {{
            var out: [rec] = new [rec];
            var i: int = 0;
            while (i < len(old)) {{
                var o: rec__old = old[i];
                if (o == null) {{ push(out, null); }} else {{ push(out, rec {{ id: o.id{fields} }}); }}
                i = i + 1;
            }}
            return out;
        }}
        "#
    )
}

/// Seeded walks on twin processes over a generated 2–4 version history of
/// a record table whose fields (ints, strings, arrays, records) come and
/// go. Twin `a` takes the patch generator's patches, whose struct changes
/// are remaps; twin `b` takes the same patches with the same mapping as a
/// hand-written transformer, run eagerly in the pause. Reads, field
/// writes, pushes and partial scans interleave with forward hops, inverse
/// patches and snapshot rollbacks, so hops land while part of `a`'s heap
/// is still in an older (or, after a rollback, newer) layout. After every
/// move the twins answer alike. A snapshot rollback of a struct change is
/// where they part, as DESIGN.md §5e documents: `b`'s table rewinds to the
/// apply instant, `a`'s keeps every record and write since, converted
/// back. The walk asserts both, then resets both tables and goes on.
#[test]
fn migrate_eager_vs_remap_agree_on_seeded_walks() {
    use dsu_core::{apply_patch, ManualTransformer, PatchGen, UpdatePolicy};

    let kinds = [Kind::Int, Kind::Str, Kind::Arr, Kind::Box];
    let int = |p: &mut Process, f: &str, args: &[i64]| {
        p.call(f, args.iter().map(|a| Value::Int(*a)).collect())
            .map(|v| v.as_int())
    };
    let (mut snapshot_rewinds, mut migrated) = (0, 0);
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(0xE6A6E ^ case);
        // The history: every hop changes `vtag`; most also add or drop
        // fields.
        let mut next_name = 0;
        let mut field = |rng: &mut Rng| {
            next_name += 1;
            (format!("f{next_name}"), *rng.choose(&kinds))
        };
        let mut versions = vec![(0..rng.gen_range_usize(0, 2))
            .map(|_| field(&mut rng))
            .collect::<Vec<_>>()];
        for _ in 0..rng.gen_range_usize(1, 3) {
            let mut f = versions.last().unwrap().clone();
            match rng.gen_range_usize(0, 3) {
                0 if !f.is_empty() => {
                    f.remove(rng.gen_range_usize(0, f.len() - 1));
                }
                1 | 2 => f.insert(rng.gen_range_usize(0, f.len()), field(&mut rng)),
                _ => {}
            }
            versions.push(f);
        }
        let srcs: Vec<String> = versions
            .iter()
            .enumerate()
            .map(|(v, f)| table_src(v, f))
            .collect();
        let pair = |from: usize, to: usize| {
            let tag = |v: usize| format!("v{v}");
            let remap = PatchGen::new()
                .generate(&srcs[from], &srcs[to], &tag(from), &tag(to))
                .unwrap();
            let name = format!("mig_{from}_{to}");
            let eager = PatchGen::new()
                .with_manual(ManualTransformer {
                    global: "data".into(),
                    function: name.clone(),
                    source: table_xform(&name, &versions[from], &versions[to]),
                })
                .generate(&srcs[from], &srcs[to], &tag(from), &tag(to))
                .unwrap();
            let changed = versions[from] != versions[to];
            assert_eq!(remap.stats.types_remapped, usize::from(changed));
            assert_eq!(eager.stats.transformers, usize::from(changed));
            (remap.patch, eager.patch, changed)
        };
        let top = versions.len() - 1;
        let forward: Vec<_> = (0..top).map(|i| pair(i, i + 1)).collect();
        let inverse: Vec<_> = (0..top).map(|i| pair(i + 1, i)).collect();
        let boot = || {
            let m = popcorn::compile(&srcs[0], "table", "v0", &popcorn::Interface::new()).unwrap();
            let mut p = Process::new(LinkMode::Updateable);
            p.load_module(&m).unwrap();
            p
        };
        let (mut a, mut b) = (boot(), boot());
        let mut at = 0usize;
        let mut n = 0i64;
        // Per hop taken: both snapshots, the version, whether it changed
        // `rec`, and `b`'s table (length, full scan) at the apply instant.
        let mut ring = Vec::new();
        let k = rng.gen_range_i64(0, 12);
        for twin in [&mut a, &mut b] {
            int(twin, "reset", &[k]).unwrap();
        }

        for step in 0..30 {
            let ctx = format!("case {case} step {step} at v{at} {versions:?}");
            let len = int(&mut a, "count", &[]).unwrap();
            n += 1;
            match rng.gen_range_usize(0, 9) {
                0..=3 => {
                    let (f, args): (&str, Vec<i64>) = match rng.gen_range_usize(0, 3) {
                        _ if len == 0 => ("add", vec![n]),
                        0 => ("digest", vec![rng.gen_range_i64(0, len - 1)]),
                        1 => ("write", vec![rng.gen_range_i64(0, len - 1), n]),
                        2 => ("add", vec![n]),
                        _ => (
                            "scan",
                            vec![rng.gen_range_i64(0, len - 1), rng.gen_range_i64(1, 5)],
                        ),
                    };
                    assert_eq!(
                        int(&mut a, f, &args),
                        int(&mut b, f, &args),
                        "{ctx} {f}{args:?}"
                    );
                }
                4 => {
                    let from = rng.gen_range_i64(0, len.max(1) - 1);
                    let k = rng.gen_range_i64(1, 6);
                    assert_eq!(
                        int(&mut a, "scan", &[from, k]),
                        int(&mut b, "scan", &[from, k]),
                        "{ctx}"
                    );
                }
                5 if !ring.is_empty() => {
                    let (sa, sb, v, changed, (len_then, scan_then)) = ring.pop().unwrap();
                    let ids_now = int(&mut a, "ids", &[]).unwrap();
                    a.restore(sa);
                    b.restore(sb);
                    at = v;
                    if changed {
                        // The eager twin's table is the apply-instant copy...
                        assert_eq!(int(&mut b, "count", &[]).unwrap(), len_then, "{ctx}");
                        assert_eq!(
                            int(&mut b, "scan", &[0, len_then]).unwrap(),
                            scan_then,
                            "{ctx}"
                        );
                        // ...the remap twin's is the table it had, every
                        // record converted back on its first touch.
                        assert_eq!(int(&mut a, "count", &[]).unwrap(), len, "{ctx}");
                        assert_eq!(int(&mut a, "ids", &[]).unwrap(), ids_now, "{ctx}");
                        snapshot_rewinds += 1;
                        ring.clear();
                        let k = rng.gen_range_i64(0, 12);
                        for twin in [&mut a, &mut b] {
                            int(twin, "reset", &[k]).unwrap();
                        }
                    }
                }
                _ => {
                    let back = at == top || (at > 0 && rng.gen_bool());
                    let (patches, to) = if back {
                        (&inverse[at - 1], at - 1)
                    } else {
                        (&forward[at], at + 1)
                    };
                    let then = (len, int(&mut b, "scan", &[0, len]).unwrap());
                    let (sa, sb) = (a.snapshot(), b.snapshot());
                    apply_patch(&mut a, &patches.0, UpdatePolicy::default()).expect(&ctx);
                    apply_patch(&mut b, &patches.1, UpdatePolicy::default()).expect(&ctx);
                    ring.push((sa, sb, at, patches.2, then));
                    at = to;
                }
            }
            assert_eq!(int(&mut a, "vtag", &[]), Ok(at as i64), "{ctx}");
            assert_eq!(int(&mut b, "vtag", &[]), Ok(at as i64), "{ctx}");
        }
        // Every record reads alike at the end of the walk.
        let len = int(&mut a, "count", &[]).unwrap();
        assert_eq!(
            int(&mut a, "scan", &[0, len]),
            int(&mut b, "scan", &[0, len]),
            "case {case}"
        );
        migrated += a.stats.records_migrated;
    }
    assert!(
        snapshot_rewinds >= 10,
        "walks too tame: {snapshot_rewinds} rewinds"
    );
    assert!(
        migrated >= 200,
        "walks too tame: {migrated} records migrated"
    );
}

/// FlashEd v3 → v4 → v3 → v4 on twin servers under the same requests:
/// one takes the generated patches (the cache entries are remapped), the
/// other converts `cache` with hand-written transformers in the pause.
/// Every response, and the v4 hit counter, agree.
#[test]
fn migrate_eager_vs_remap_agree_on_flashed_cache() {
    use dsu_core::{ManualTransformer, PatchGen};
    use flashed::{versions, Server, ServerConfig, SimFs, Workload};

    let xform = |name: &str, hits: &str| {
        format!(
            r#"
            fun {name}(old: [cache_entry__old]): [cache_entry] {{
                var out: [cache_entry] = new [cache_entry];
                var i: int = 0;
                while (i < len(old)) {{
                    var o: cache_entry__old = old[i];
                    if (o == null) {{ push(out, null); }} else {{ push(out, cache_entry {{ path: o.path, body: o.body{hits} }}); }}
                    i = i + 1;
                }}
                return out;
            }}
            "#
        )
    };
    let (v3, v4) = (versions::v3(), versions::v4());
    let gen = |old: &str, new: &str, from: &str, to: &str, manual: Option<(&str, String)>| {
        let mut g = PatchGen::new();
        if let Some((name, source)) = manual {
            g = g.with_manual(ManualTransformer {
                global: "cache".into(),
                function: name.into(),
                source,
            });
        }
        g.generate(old, new, from, to).unwrap().patch
    };
    let remap = [
        gen(&v3, &v4, "v3", "v4", None),
        gen(&v4, &v3, "v4", "v3", None),
    ];
    let eager = [
        gen(&v3, &v4, "v3", "v4", Some(("up", xform("up", ", hits: 0")))),
        gen(&v4, &v3, "v4", "v3", Some(("down", xform("down", "")))),
    ];
    assert!(remap.iter().all(|p| p.manifest.transformers.is_empty()));
    assert!(eager.iter().all(|p| p.manifest.remaps.is_empty()));

    for seed in 0..3u64 {
        let fs = || SimFs::generate_fixed(24, 256, seed);
        let start = || Server::start(&ServerConfig::new(), &v3, "v3", fs()).unwrap();
        let (mut a, mut b) = (start(), start());
        let mut wl = Workload::new(fs().paths(), 1.0, seed);
        for hop in 0..4 {
            let batch = wl.batch(60);
            for s in [&mut a, &mut b] {
                s.push_requests(batch.clone());
                s.serve().unwrap();
            }
            let answers = |s: &mut Server| -> Vec<String> {
                s.take_completions()
                    .into_iter()
                    .map(|c| c.response)
                    .collect()
            };
            assert_eq!(answers(&mut a), answers(&mut b), "seed {seed} hop {hop}");
            if hop % 2 == 1 {
                let hits = |s: &mut Server| s.process_mut().call("cache_hits_total", vec![]);
                assert_eq!(hits(&mut a), hits(&mut b), "seed {seed} hop {hop}");
            }
            a.queue_patch(remap[hop % 2].clone());
            b.queue_patch(eager[hop % 2].clone());
            a.apply_pending_now().unwrap();
            b.apply_pending_now().unwrap();
        }
        assert!(a.process().stats.records_migrated > 0, "seed {seed}");
    }
}

// ====================== supervised faulted walks ======================

/// Random k-forward / j-back walks of the FlashEd patch stream on a
/// supervised fleet, with crash and read-error faults injected at random
/// points: a rolling rollout per forward hop (crashes kill the victim's
/// thread for real — the supervisor reboots it from its persisted ring
/// and the driver re-drives the hop), then per-worker rollback-chain
/// hops back, re-driven across any restarts. Surviving workers must
/// converge on the scheduled version after every hop, every pushed
/// request must complete, and every journal lifecycle — forward,
/// backward, aborted-by-crash, re-driven — must obey the phase laws.
#[test]
fn faulted_walks_converge_under_supervision() {
    use dsu_obs::journal::validate_lifecycle;
    use dsu_obs::Journal;
    use flashed::{
        patch_stream, versions, CrashPoint, FaultPlan, Fleet, FleetConfig, RolloutPlan, SimFs,
        SupervisorConfig, Workload,
    };
    use std::time::{Duration, Instant};

    const WORKERS: usize = 3;
    let fs = SimFs::generate_fixed(16, 256, 7);
    let stream = patch_stream().unwrap();
    let crash_points = [
        CrashPoint::MidPause,
        CrashPoint::MidTransform,
        CrashPoint::MidSoak,
        CrashPoint::Serving,
    ];

    for case in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0xFA17 ^ case);
        let mut wl = Workload::new(fs.paths(), 1.0, 61 + case);
        let journal = Journal::new();
        // A generous restart budget: this test proves convergence under
        // repeated injury, not the give-up path.
        let cfg = FleetConfig::new(WORKERS)
            .with_journal(journal.clone())
            .with_supervision(SupervisorConfig {
                max_restarts: 32,
                ..SupervisorConfig::default()
            });
        let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
        let mut pushed = 0usize;

        // Forward: k hops of the real patch stream, each a rolling
        // rollout, with a coin-flipped crash and/or read-error fault
        // armed on a random worker beforehand.
        let k = rng.gen_range_usize(2, stream.len());
        for (step, entry) in stream.iter().enumerate().take(k) {
            if rng.gen_bool() {
                let victim = rng.gen_range_usize(0, WORKERS - 1);
                fleet.inject_worker_fault(
                    victim,
                    FaultPlan {
                        crash_at: Some(*rng.choose(&crash_points)),
                        ..FaultPlan::default()
                    },
                );
            }
            let reader = rng.gen_bool().then(|| {
                let victim = rng.gen_range_usize(0, WORKERS - 1);
                fleet.set_worker_read_failures(victim, true);
                victim
            });
            fleet.push_requests(wl.batch(30));
            pushed += 30;
            fleet
                .rollout_plan(&entry.patch, &RolloutPlan::rolling())
                .unwrap();
            if let Some(victim) = reader {
                fleet.set_worker_read_failures(victim, false);
            }
            let target = format!("v{}", step + 2);
            assert!(
                fleet.live_versions().iter().all(|v| *v == target),
                "case {case} forward step {step}: {:?}\nrestarts: {:?}\nstate: {:?}",
                fleet.live_versions(),
                fleet.restart_reports(),
                (0..WORKERS)
                    .map(|w| {
                        let r = fleet.remote(w);
                        (
                            w,
                            fleet.worker_epoch(w),
                            r.applied_count(),
                            r.failure_count(),
                            r.pending_count(),
                            r.reports().last().map(|x| x.to_version.clone()),
                        )
                    })
                    .collect::<Vec<_>>()
            );
        }

        // Backward: j ≤ k hops per worker through its snapshot-ring
        // rollback chain, one hop at a time, re-driven until it lands.
        // A hop interrupted by a crash (armed above but fired late, or a
        // replayed incarnation's own pause) is withdrawn by the
        // supervisor; the loop re-checks the live version and enqueues
        // again, exactly like the forward driver's re-drive.
        let j = rng.gen_range_usize(1, k);
        let target = format!("v{}", k + 1 - j);
        fleet.push_requests(wl.batch(30));
        pushed += 30;
        let deadline = Instant::now() + Duration::from_secs(30);
        for w in 0..WORKERS {
            loop {
                let cur = fleet.live_versions()[w].clone();
                if cur == target {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "case {case}: worker {w} never reached {target}: {:?}",
                    fleet.live_versions()
                );
                let epoch0 = fleet.worker_epoch(w);
                let remote = fleet.remote(w);
                if remote.pending_count() == 0 && remote.enqueue_rollback_chain(1) == 1 {
                    // The worker pops an op off its queue before applying
                    // it, so a zero pending count does not mean the last
                    // hop's report is visible yet. Wait for this hop to
                    // publish (the version moves) — or for a seat swap to
                    // eat it — before considering another; enqueueing off
                    // a stale version reading walks the ring past the
                    // target.
                    while fleet.live_versions()[w] == cur
                        && fleet.worker_epoch(w) == epoch0
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    if fleet.worker_epoch(w) != epoch0 {
                        // The seat was swapped under the enqueue: defuse
                        // the handle we used so the hop cannot dangle on a
                        // dead incarnation, then re-drive on the fresh
                        // seat.
                        remote.cancel_pending("rollback re-driven after restart");
                    }
                } else {
                    // Ring momentarily empty (a restarted incarnation
                    // mid-restore) or a hop still in flight — retry.
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }

        // Quiesce: disarm any fault that never fired, wait for every
        // worker to be up with nothing pending, then judge the walk.
        for w in 0..WORKERS {
            fleet.inject_worker_fault(w, FaultPlan::none());
        }
        let settle = Instant::now() + Duration::from_secs(30);
        while !(0..WORKERS).all(|w| fleet.worker_up(w) && fleet.remote(w).pending_count() == 0) {
            assert!(Instant::now() < settle, "case {case}: fleet never settled");
            std::thread::sleep(Duration::from_micros(500));
        }
        assert!(
            fleet.live_versions().iter().all(|v| *v == target),
            "case {case}: {:?} != {target}",
            fleet.live_versions()
        );

        // Every pushed request completes — served, error-answered, or
        // picked up by a restarted incarnation — never lost.
        fleet.drain(pushed).unwrap();
        assert_eq!(fleet.completions().len(), pushed);

        // Zero lifecycle gaps across the whole faulted walk.
        assert!(!journal.update_ids().is_empty());
        for id in journal.update_ids() {
            validate_lifecycle(&journal.events_for(id)).unwrap();
        }
        fleet.shutdown().unwrap();
    }
}

// ======================== hostile state bytes ========================

/// Boots a fresh FlashEd v1 server and loads a worker-state blob into it
/// the way a supervised respawn does — decode, replay the chain (strict),
/// install ring and pending ops — then returns what that server saves.
fn reload_worker_state(blob: &str, fs: &flashed::SimFs) -> Result<String, String> {
    use flashed::{versions, Server, ServerConfig};

    let (chain, inner) = dsu_core::decode_worker_state(blob)?;
    let mut server = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs.clone())
        .map_err(|e| e.to_string())?;
    // A mutated patch that still verifies may loop; nothing honest here
    // needs more than this.
    server.process_mut().set_fuel(Some(5_000_000));
    for patch in chain {
        server.queue_patch(patch);
        server.apply_pending_now().map_err(|e| e.to_string())?;
    }
    server.load_updater_state(&inner)?;
    Ok(server.updater.save_worker_state())
}

/// Worker-state blobs are what a supervised restart boots from, so their
/// reader is held to: **an error, or exactly what the bytes say**. Blobs
/// are taken after every hop of seeded FlashEd walks (forward to v4 or v5,
/// then back down the snapshot ring, now and then with an op still
/// queued; a cached file body holds multi-byte characters, so a damaged
/// length can land inside one). Each is mutated by truncation, bit flips,
/// splices and re-numbered digits. A mutant either fails to load — with
/// an `Err`, never a panic — or loads to a state whose save loads back to
/// the same bytes; junk appended where the format does not look loads to
/// the original. The literal inputs are the panics and the one silent
/// mis-load this reader used to have.
#[test]
fn hostile_state_bytes_load_as_written_or_not_at_all() {
    use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};

    // ---- the literal cases ------------------------------------------
    for bad in [
        // A count sized before it was believed (capacity overflow).
        "dsu-worker-state 1\nchain 18446744073709551615\n",
        // Lengths that land inside a two-byte character.
        "dsu-worker-state 1\nchain 1\npatch 1\né\nstate 0\n",
        "dsu-worker-state 1\nchain 0\nstate 1\né",
    ] {
        assert!(dsu_core::decode_worker_state(bad).is_err(), "{bad:?}");
    }
    let mut proc = Process::new(LinkMode::Updateable);
    let mut up = dsu_core::Updater::new();
    let ring_of = |snapshot: &str| {
        let ring = format!("dsu-snapshot-ring 1\ndepth 4\nentry\tv1\tv2\n{snapshot}\n");
        format!("dsu-updater-state 1\nring {}\n{ring}", ring.len())
    };
    let empty = r#"{"fns":{},"slots":[],"structs":{},"globals":[]}"#;
    let cases = [
        (
            "dsu-updater-state 1\nring 1\né".to_string(),
            "truncated ring",
        ),
        (ring_of(empty) + "op-apply 0 1\né\n", "truncated patch"),
        // An id past u32 used to load as `FuncId(4)`.
        (
            ring_of(&empty.replacen("{}", r#"{"f":4294967300}"#, 1)),
            "out of range",
        ),
        // Three slots on a process with none: the restore of this entry
        // used to index out of bounds inside the pause.
        (
            ring_of(&empty.replacen("[]", "[7,8,9]", 1)),
            "does not fit the process: 3 slots",
        ),
    ];
    for (bad, why) in &cases {
        let e = up.load_state(&mut proc, bad).unwrap_err();
        assert!(e.contains(why), "{bad:?}: {e}");
    }
    assert_eq!(up.load_state(&mut proc, &ring_of(empty)), Ok(0));
    assert_eq!(up.snapshot_transitions().len(), 1);

    // ---- the seeded walks -------------------------------------------
    let fs = SimFs::generate_fixed(6, 96, 11);
    let paths = fs.paths();
    fs.write(paths[0].as_str(), "héllo wörld — ✓ naïve café ☕ 日本語");
    let stream = patch_stream().unwrap();
    let (mut refused, mut loaded) = (0usize, 0usize);

    for case in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0xB17E5 ^ case);
        let mut wl = Workload::new(paths.clone(), 1.0, 17 + case);
        let mut server =
            Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs.clone()).unwrap();
        let mut blobs = Vec::new();
        // At least v4: the ring then holds a snapshot of v3's response cache.
        let hops = rng.gen_range_usize(3, stream.len());
        for gen in &stream[..hops] {
            server.push_requests(wl.batch(12));
            server.push_requests([format!("GET {} HTTP/1.0", paths[0])]);
            server.queue_patch(gen.patch.clone());
            if rng.gen_bool() {
                // Saved with the hop still queued: an `op-apply` section.
                blobs.push(server.updater.save_worker_state());
            }
            server.serve().unwrap();
            blobs.push(server.updater.save_worker_state());
        }
        for _ in 0..rng.gen_range_usize(1, hops) {
            assert_eq!(server.remote().enqueue_rollback_chain(1), 1);
            if rng.gen_bool() {
                blobs.push(server.updater.save_worker_state());
            }
            server.apply_pending_now().unwrap();
            blobs.push(server.updater.save_worker_state());
        }
        assert!(blobs.iter().any(|b| !b.is_ascii()), "case {case}");

        for (bi, blob) in blobs.iter().enumerate() {
            // Untouched, a blob loads to exactly itself.
            assert_eq!(reload_worker_state(blob, &fs).as_ref(), Ok(blob));
            // Bytes past the last section are not the format's.
            let padded = format!("{blob}\u{0}junk é");
            assert_eq!(reload_worker_state(&padded, &fs).as_ref(), Ok(blob));

            let bytes = blob.as_bytes();
            for m in 0..24 {
                let mut mutant = bytes.to_vec();
                let at = rng.gen_range_usize(0, bytes.len() - 1);
                match m % 4 {
                    0 => mutant.truncate(at),
                    1 => mutant[at] ^= 1 << rng.gen_range_usize(0, 7),
                    2 => {
                        let from = rng.gen_range_usize(0, bytes.len() - 1);
                        let n = rng.gen_range_usize(1, 40).min(bytes.len() - from);
                        let graft = bytes[from..from + n].to_vec();
                        mutant.splice(at..(at + n).min(bytes.len()), graft);
                    }
                    _ => {
                        // Re-number: the next digit becomes another digit
                        // — a length, a count or an id that still parses.
                        if let Some(d) = mutant[at..].iter_mut().find(|b| b.is_ascii_digit()) {
                            *d = b'0' + (*d - b'0' + 1 + (at % 9) as u8) % 10;
                        }
                    }
                }
                // The reader takes `&str`: damage that breaks the
                // encoding reaches it as replacement characters.
                let mutant = String::from_utf8_lossy(&mutant).into_owned();
                match reload_worker_state(&mutant, &fs) {
                    Err(_) => refused += 1,
                    Ok(saved) => {
                        loaded += 1;
                        assert_eq!(
                            reload_worker_state(&saved, &fs).as_ref(),
                            Ok(&saved),
                            "case {case} blob {bi} mutant {m}: unstable load"
                        );
                    }
                }
            }
        }
    }
    // Both outcomes are exercised, or the property proved nothing.
    assert!(
        refused > 100 && loaded > 20,
        "{refused} refused, {loaded} loaded"
    );
}
