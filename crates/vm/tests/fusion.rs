//! Link-time fusion must preserve what the verifier proved: a program run
//! through the fused decoded form and the same program with every fusion
//! blocked must produce the same result, the same trap and the same
//! global state. Seeded and self-contained — a failure prints its seed
//! and source.

use popcorn::Interface;
use tal::{Instr, Module};
use vm::{DOp, LinkMode, Process, Trap, Value};

/// SplitMix64: small, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The same module with a `Nop` after every instruction, so no two ops a
/// fusion rule names are ever adjacent.
fn block_fusion(m: &Module) -> Module {
    let spread = |code: &[Instr]| -> Vec<Instr> {
        code.iter()
            .flat_map(|ins| {
                let ins = match ins {
                    Instr::Jump(t) => Instr::Jump(t * 2),
                    Instr::JumpIfFalse(t) => Instr::JumpIfFalse(t * 2),
                    other => other.clone(),
                };
                [ins, Instr::Nop]
            })
            .collect()
    };
    let mut m = m.clone();
    for f in &mut m.functions {
        f.code = spread(&f.code);
    }
    for g in &mut m.globals {
        g.init = spread(&g.init);
    }
    m
}

fn boot(m: &Module) -> Process {
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(m).expect("links");
    p
}

fn has_op(p: &Process, func: &str, pred: impl Fn(&DOp) -> bool) -> bool {
    let id = p.function_id(func).expect("bound");
    p.function(id).decoded.iter().any(pred)
}

// --------------------------------------------------------- the generator

const PRELUDE: &str = r#"
struct rec { a: int, b: int, next: rec }
global garr: [int] = [3, 1, 4, 1, 5];
global grecs: [rec] = new [rec];
global gsum: int = 0;
"#;

struct Gen {
    rng: Rng,
    loops: usize,
}

impl Gen {
    fn index(&mut self) -> String {
        match self.rng.below(8) {
            0 => self.int(1),
            1 => format!("{}", self.rng.below(7) as i64 - 1),
            _ => self.rng.pick(&["i", "j"]).to_string(),
        }
    }

    fn int(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(4) {
                0 => format!("{}", self.rng.below(9) as i64 - 2),
                _ => self.rng.pick(&["x", "y", "i", "j", "acc"]).to_string(),
            };
        }
        match self.rng.below(12) {
            0 => "len(a)".to_string(),
            1 => "len(garr)".to_string(),
            2 => "len(rs)".to_string(),
            3 => format!("a[{}]", self.index()),
            4 => format!("garr[{}]", self.index()),
            5 => format!("r.{}", self.rng.pick(&["a", "b"])),
            6 => format!("rs[{}].{}", self.index(), self.rng.pick(&["a", "b"])),
            7 => format!("grecs[{}].{}", self.index(), self.rng.pick(&["a", "b"])),
            8 => format!("r.next.{}", self.rng.pick(&["a", "b"])),
            _ => {
                let op = self.rng.pick(&["+", "-", "*", "/", "%", "+", "-"]);
                format!("({} {op} {})", self.int(depth - 1), self.int(depth - 1))
            }
        }
    }

    fn cond(&mut self) -> String {
        match self.rng.below(4) {
            0 => "r == null".to_string(),
            1 => "r != null".to_string(),
            _ => {
                let op = self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                format!("{} {op} {}", self.int(1), self.int(1))
            }
        }
    }

    fn block(&mut self, depth: u32, out: &mut String) {
        for _ in 0..1 + self.rng.below(4) {
            self.stmt(depth, out);
        }
    }

    fn stmt(&mut self, depth: u32, out: &mut String) {
        match self.rng.below(if depth == 0 { 10 } else { 13 }) {
            0 | 1 => out.push_str(&format!("acc = acc + {};\n", self.int(2))),
            2 => out.push_str(&format!(
                "{} = {};\n",
                self.rng.pick(&["i", "j"]),
                self.int(1)
            )),
            3 => out.push_str(&format!(
                "push({}, {});\n",
                self.rng.pick(&["a", "garr"]),
                self.int(2)
            )),
            4 => out.push_str(&format!(
                "r = rec {{ a: {}, b: {}, next: r }};\n",
                self.int(1),
                self.int(1)
            )),
            5 => out.push_str(self.rng.pick(&["r = r.next;\n", "r = null;\n"])),
            6 => out.push_str(&format!("push({}, r);\n", self.rng.pick(&["rs", "grecs"]))),
            7 => out.push_str(&format!("gsum = gsum + {};\n", self.int(1))),
            8 => out.push_str(&format!("a[{}] = {};\n", self.index(), self.int(1))),
            9 => out.push_str(&format!("{};\n", self.int(2))),
            10 | 11 => {
                out.push_str(&format!("if ({}) {{\n", self.cond()));
                self.block(depth - 1, out);
                if self.rng.below(2) == 0 {
                    out.push_str("} else {\n");
                    self.block(depth - 1, out);
                }
                out.push_str("}\n");
            }
            _ => {
                // Bounded by a counter the body cannot name.
                let k = format!("k{}", self.loops);
                self.loops += 1;
                let n = 1 + self.rng.below(5);
                out.push_str(&format!("var {k}: int = 0;\nwhile ({k} < {n}) {{\n"));
                self.block(depth - 1, out);
                out.push_str(&format!("{k} = {k} + 1;\n}}\n"));
            }
        }
    }

    fn program(seed: u64) -> String {
        let mut g = Gen {
            rng: Rng(seed),
            loops: 0,
        };
        let mut body = String::new();
        g.block(2, &mut body);
        g.block(2, &mut body);
        format!(
            "{PRELUDE}
fun main(x: int, y: int): int {{
    var a: [int] = [2, 7, 1, 8];
    var rs: [rec] = new [rec];
    var r: rec = rec {{ a: x, b: y, next: null }};
    var i: int = 0;
    var j: int = 2;
    var acc: int = 0;
    push(rs, r);
    push(grecs, r);
{body}
    return acc + gsum;
}}"
        )
    }
}

fn globals_of(p: &Process) -> Vec<(String, Value)> {
    let mut g: Vec<_> = p
        .globals()
        .map(|c| (c.name.clone(), c.value.clone()))
        .collect();
    g.sort_by(|a, b| a.0.cmp(&b.0));
    g
}

#[test]
fn fused_and_unfused_runs_agree() {
    const PROGRAMS: u64 = 1200;
    let (mut done, mut traps) = (0u32, [0u32; 3]);
    for seed in 0..PROGRAMS {
        let src = Gen::program(seed);
        let m = popcorn::compile(&src, "t", "v1", &Interface::new())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let (mut fused, mut plain) = (boot(&m), boot(&block_fusion(&m)));
        let args = vec![Value::Int(seed as i64 % 7 - 2), Value::Int(3)];
        let got = fused.call("main", args.clone());
        let want = plain.call("main", args);
        assert_eq!(got, want, "seed {seed}\n{src}");
        assert_eq!(
            globals_of(&fused),
            globals_of(&plain),
            "seed {seed}: global state\n{src}"
        );
        assert!(
            fused.stats.instrs < plain.stats.instrs,
            "seed {seed}: nothing fused"
        );
        match got {
            Ok(_) => done += 1,
            Err(Trap::NullDeref) => traps[0] += 1,
            Err(Trap::IndexOutOfBounds { .. }) => traps[1] += 1,
            Err(Trap::DivByZero) => traps[2] += 1,
            Err(t) => panic!("seed {seed}: unexpected {t}\n{src}"),
        }
    }
    // The stream has to reach every outcome the fused reads can produce.
    assert!(done >= 50, "only {done} programs ran to completion");
    assert!(
        traps.iter().all(|&n| n >= 20),
        "null/bounds/div traps: {traps:?}"
    );
}

#[test]
fn each_trap_comes_through_its_fused_read() {
    let src = r#"
        struct rec { a: int }
        global garr: [int] = [1, 2];
        fun field(): int { var r: rec = null; return r.a; }
        fun local_elem(i: int): int { var a: [int] = [1]; return a[i]; }
        fun global_elem(i: int): int { return garr[i]; }
        fun length(): int { var a: [int] = [1, 2, 3]; return len(a); }
    "#;
    let m = popcorn::compile(src, "t", "v1", &Interface::new()).unwrap();
    let mut fused = boot(&m);
    assert!(has_op(&fused, "field", |d| matches!(
        d,
        DOp::LocalGetField(..)
    )));
    assert!(has_op(&fused, "local_elem", |d| matches!(
        d,
        DOp::LocalArrayGet(..)
    )));
    assert!(has_op(&fused, "global_elem", |d| matches!(
        d,
        DOp::GlobalArrayGet(..)
    )));
    assert!(has_op(&fused, "length", |d| matches!(
        d,
        DOp::LocalArrayLen(..)
    )));
    let mut plain = boot(&block_fusion(&m));
    assert!(!has_op(&plain, "global_elem", |d| matches!(
        d,
        DOp::GlobalArrayGet(..)
    )));
    for p in [&mut fused, &mut plain] {
        assert_eq!(p.call("field", vec![]).unwrap_err(), Trap::NullDeref);
        for (f, i, len) in [("local_elem", 1, 1), ("global_elem", -1, 2)] {
            assert_eq!(
                p.call(f, vec![Value::Int(i)]).unwrap_err(),
                Trap::IndexOutOfBounds { index: i, len }
            );
        }
        assert_eq!(p.call("length", vec![]).unwrap(), Value::Int(3));
    }
}
