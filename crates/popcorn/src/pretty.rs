//! Pretty-printer: AST → canonical Popcorn source.
//!
//! The patch generator composes patch *source* out of items taken from two
//! program versions plus hand-written state transformers; this module renders
//! AST items back to compilable text. The canonical form also gives a
//! line-number-insensitive equality for diffing: two items are considered
//! unchanged when their renderings agree.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for item in &p.items {
        match item {
            Item::Struct(s) => out.push_str(&struct_def(s)),
            Item::Global(g) => out.push_str(&global_def(g)),
            Item::Extern(e) => out.push_str(&extern_def(e)),
            Item::Fun(f) => out.push_str(&fun_def(f)),
        }
        out.push('\n');
    }
    out
}

/// Renders a struct definition.
pub fn struct_def(s: &StructDef) -> String {
    let fields: Vec<String> = s.fields.iter().map(|(n, t)| format!("{n}: {t}")).collect();
    format!("struct {} {{ {} }}\n", s.name, fields.join(", "))
}

/// Renders a global definition.
pub fn global_def(g: &GlobalDef) -> String {
    format!("global {}: {} = {};\n", g.name, g.ty, expr(&g.init))
}

/// Renders an extern declaration.
pub fn extern_def(e: &ExternDef) -> String {
    let params: Vec<String> = e.params.iter().map(ToString::to_string).collect();
    format!("extern fun {}({}): {};\n", e.name, params.join(", "), e.ret)
}

/// Renders a function definition.
pub fn fun_def(f: &FunDef) -> String {
    let params: Vec<String> = f.params.iter().map(|(n, t)| format!("{n}: {t}")).collect();
    let mut out = format!("fun {}({}): {} {{\n", f.name, params.join(", "), f.ret);
    for s in &f.body {
        stmt(&mut out, s, 1);
    }
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match &s.kind {
        StmtKind::Var { name, ty, init } => {
            let _ = writeln!(out, "var {name}: {ty} = {};", expr(init));
        }
        StmtKind::Assign { target, value } => {
            let _ = writeln!(out, "{} = {};", expr(target), expr(value));
        }
        StmtKind::If { cond, then, els } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            for t in then {
                stmt(out, t, depth + 1);
            }
            indent(out, depth);
            if els.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for e in els {
                    stmt(out, e, depth + 1);
                }
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", expr(cond));
            for b in body {
                stmt(out, b, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", expr(e));
        }
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Update => out.push_str("update;\n"),
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{};", expr(e));
        }
    }
}

/// Renders an expression (fully parenthesised where nesting matters).
pub fn expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Int(n) => n.to_string(),
        ExprKind::Str(s) => format!("{s:?}"),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Null => "null".to_string(),
        ExprKind::Var(n) => n.clone(),
        ExprKind::Unary(UnOp::Neg, x) => format!("(-{})", expr(x)),
        ExprKind::Unary(UnOp::Not, x) => format!("(!{})", expr(x)),
        ExprKind::Binary(op, l, r) => format!("({} {op} {})", expr(l), expr(r)),
        ExprKind::Call(f, args) => {
            let args: Vec<String> = args.iter().map(expr).collect();
            match &f.kind {
                ExprKind::Var(name) => format!("{name}({})", args.join(", ")),
                _ => format!("({})({})", expr(f), args.join(", ")),
            }
        }
        ExprKind::Field(o, f) => format!("{}.{f}", postfix_base(o)),
        ExprKind::Index(a, i) => format!("{}[{}]", postfix_base(a), expr(i)),
        ExprKind::Record(name, fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(n, v)| format!("{n}: {}", expr(v)))
                .collect();
            format!("{name} {{ {} }}", fields.join(", "))
        }
        ExprKind::ArrayLit(elems) => {
            let elems: Vec<String> = elems.iter().map(expr).collect();
            format!("[{}]", elems.join(", "))
        }
        ExprKind::NewArray(t) => format!("new [{t}]"),
        ExprKind::FnRef(n) => format!("&{n}"),
    }
}

/// Renders an expression used as the base of a postfix form (`.field`,
/// `[index]`). `&name` is the one rendering the parser cannot continue
/// with a postfix operator, so it gets parenthesised; every other form is
/// either already parenthesised or postfix-continuable.
fn postfix_base(e: &Expr) -> String {
    match &e.kind {
        ExprKind::FnRef(_) => format!("({})", expr(e)),
        _ => expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Round-trip property on a representative program: parse → print →
    /// parse → print must be a fixed point.
    #[test]
    fn print_parse_fixed_point() {
        let src = r#"
            struct node { label: string, next: node }
            extern fun log(string): unit;
            global count: int = 1 + 2 * 3;
            global names: [string] = ["a", "b"];
            fun walk(n: node, depth: int): int {
                var seen: int = 0;
                while (n != null && depth > 0) {
                    if (len(n.label) == 0 || n.label == "skip") {
                        n = n.next;
                        continue;
                    } else {
                        seen = seen + 1;
                    }
                    update;
                    depth = depth - 1;
                    n = n.next;
                }
                return seen;
            }
            fun use_ptr(): int {
                var f: fn(node, int): int = &walk;
                var a: [int] = new [int];
                push(a, f(null, -1));
                return a[0];
            }
        "#;
        let p1 = parse(src).unwrap();
        let text1 = program(&p1);
        let p2 = parse(&text1).expect("pretty output parses");
        let text2 = program(&p2);
        assert_eq!(text1, text2, "pretty-printing is a fixed point");
    }

    #[test]
    fn escapes_strings() {
        let p = parse(r#"global s: string = "a\nb\"c";"#).unwrap();
        let text = program(&p);
        let p2 = parse(&text).unwrap();
        assert_eq!(program(&p2), text);
    }

    #[test]
    fn canonical_form_ignores_formatting_differences() {
        let a = parse("fun f(x: int): int { return x+1; }").unwrap();
        let b = parse("fun  f( x:int ):int {\n  return (x + 1);\n}").unwrap();
        // Parenthesisation differs syntactically but not semantically; the
        // canonical renderings agree because `expr` reparenthesises.
        assert_eq!(program(&a), program(&b));
    }
}
