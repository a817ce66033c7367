//! Java-like pretty-printing of classes and method bodies.
//!
//! Used by the Figure 2–5 golden tests (experiment **E2**) to compare the
//! generated artefacts against the paper's listings, and by the examples to
//! show the user what the transformation produced.

use crate::class::{Class, ClassKind, Method, Visibility};
use crate::insn::{Const, Insn};
use crate::ty::Ty;
use crate::universe::{ClassId, ClassUniverse};
use std::fmt::Write as _;

/// Render a type with resolved class names.
pub fn ty_str(universe: &ClassUniverse, ty: &Ty) -> String {
    match ty {
        Ty::Object(c) => String::from(&*universe.class(*c).name),
        Ty::Array(e) => format!("{}[]", ty_str(universe, e)),
        other => other.to_string(),
    }
}

fn vis_str(v: Visibility) -> &'static str {
    match v {
        Visibility::Private => "private ",
        Visibility::Package => "",
        Visibility::Protected => "protected ",
        Visibility::Public => "public ",
    }
}

/// Render a method header, Java style (constructors get the class name).
pub fn method_header(universe: &ClassUniverse, class: &Class, m: &Method) -> String {
    let mut s = String::new();
    s.push_str(vis_str(m.visibility));
    if m.is_static {
        s.push_str("static ");
    }
    if m.is_native {
        s.push_str("native ");
    }
    let display_name: &str = if m.is_ctor() {
        &class.name
    } else if m.is_clinit() {
        "<clinit>"
    } else {
        &m.name
    };
    if !m.is_ctor() && !m.is_clinit() {
        let _ = write!(s, "{} ", ty_str(universe, &m.ret));
    }
    let params: Vec<String> = m
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{} a{}", ty_str(universe, p), i))
        .collect();
    let _ = write!(s, "{}({})", display_name, params.join(", "));
    s
}

/// Render the *declaration surface* of a class: header, fields and method
/// headers (no bodies). This is the canonical form used in golden tests.
pub fn declaration(universe: &ClassUniverse, id: ClassId) -> String {
    let class = universe.class(id);
    let mut out = String::new();
    let kw = match class.kind {
        ClassKind::Class => "class",
        ClassKind::Interface => "interface",
    };
    let _ = write!(out, "public {kw} {}", class.name);
    if let Some(sup) = class.superclass {
        let _ = write!(out, " extends {}", universe.class(sup).name);
    }
    if !class.interfaces.is_empty() {
        let names: Vec<&str> = class
            .interfaces
            .iter()
            .map(|&i| &*universe.class(i).name)
            .collect();
        let _ = write!(out, " implements {}", names.join(", "));
    }
    out.push_str(" {\n");
    for f in &class.static_fields {
        let fin = if f.is_final { "final " } else { "" };
        let _ = writeln!(
            out,
            "    {}static {}{} {};",
            vis_str(f.visibility),
            fin,
            ty_str(universe, &f.ty),
            f.name
        );
    }
    for f in &class.fields {
        let fin = if f.is_final { "final " } else { "" };
        let _ = writeln!(
            out,
            "    {}{}{} {};",
            vis_str(f.visibility),
            fin,
            ty_str(universe, &f.ty),
            f.name
        );
    }
    for m in &class.methods {
        let _ = writeln!(out, "    {};", method_header(universe, class, m));
    }
    out.push_str("}\n");
    out
}

/// Render a full disassembly of a class, including instruction listings for
/// every body — useful for debugging rewrites.
pub fn disassemble(universe: &ClassUniverse, id: ClassId) -> String {
    let class = universe.class(id);
    let mut out = declaration(universe, id);
    for m in &class.methods {
        if let Some(body) = &m.body {
            let _ = writeln!(
                out,
                "\n  // {} (max_locals={})",
                method_header(universe, class, m),
                body.max_locals
            );
            for (pc, insn) in body.code.iter().enumerate() {
                let _ = writeln!(out, "    {pc:4}: {}", insn_str(universe, insn));
            }
            for h in &body.handlers {
                let c = h.catch.map_or("any", |c| &universe.class(c).name);
                let _ = writeln!(
                    out,
                    "    try [{}, {}) -> {} catch {}",
                    h.start, h.end, h.target, c
                );
            }
        }
    }
    out
}

/// Render the declaration surface of every class in the universe,
/// optionally filtered to generated artefacts only — the "look at what the
/// transformation produced" artefact (the Rust analogue of decompiling the
/// BCEL output).
pub fn dump_universe(universe: &ClassUniverse, generated_only: bool) -> String {
    let mut out = String::new();
    for (id, class) in universe.iter() {
        let generated = matches!(class.origin, crate::class::ClassOrigin::Generated { .. });
        if generated_only && !generated {
            continue;
        }
        out.push_str(&declaration(universe, id));
        out.push('\n');
    }
    out
}

/// Render one instruction with resolved names.
pub fn insn_str(universe: &ClassUniverse, insn: &Insn) -> String {
    let cname = |c: ClassId| universe.class(c).name.clone();
    match insn {
        Insn::Const(Const::Str(s)) => format!("const \"{s}\""),
        Insn::Const(c) => format!("const {c:?}"),
        Insn::LoadLocal(n) => format!("load_local {n}"),
        Insn::StoreLocal(n) => format!("store_local {n}"),
        Insn::GetField(fr) => format!(
            "get_field {}.{}",
            cname(fr.owner),
            universe.class(fr.owner).fields[fr.index as usize].name
        ),
        Insn::PutField(fr) => format!(
            "put_field {}.{}",
            cname(fr.owner),
            universe.class(fr.owner).fields[fr.index as usize].name
        ),
        Insn::GetStatic(fr) => format!(
            "get_static {}.{}",
            cname(fr.owner),
            universe.class(fr.owner).static_fields[fr.index as usize].name
        ),
        Insn::PutStatic(fr) => format!(
            "put_static {}.{}",
            cname(fr.owner),
            universe.class(fr.owner).static_fields[fr.index as usize].name
        ),
        Insn::NewInit { class, ctor, argc } => {
            format!("new {} ctor#{ctor} argc={argc}", cname(*class))
        }
        Insn::Invoke { sig, argc } => {
            format!("invoke {}/{argc}", universe.sig_info(*sig).name)
        }
        Insn::InvokeStatic { class, sig, argc } => format!(
            "invoke_static {}::{}/{argc}",
            cname(*class),
            universe.sig_info(*sig).name
        ),
        Insn::Return => "return".to_owned(),
        Insn::ReturnValue => "return_value".to_owned(),
        Insn::Throw => "throw".to_owned(),
        Insn::Jump(t) => format!("jump {t}"),
        Insn::JumpIf(t) => format!("jump_if {t}"),
        Insn::JumpIfNot(t) => format!("jump_if_not {t}"),
        Insn::BinOp(op) => format!("binop {op:?}"),
        Insn::UnOp(op) => format!("unop {op:?}"),
        Insn::Cmp(op) => format!("cmp {op:?}"),
        Insn::NewArray(t) => format!("new_array {}", ty_str(universe, t)),
        Insn::ArrayGet => "array_get".to_owned(),
        Insn::ArraySet => "array_set".to_owned(),
        Insn::ArrayLen => "array_len".to_owned(),
        Insn::Dup => "dup".to_owned(),
        Insn::Pop => "pop".to_owned(),
        Insn::Swap => "swap".to_owned(),
        Insn::InstanceOf(c) => format!("instanceof {}", cname(*c)),
        Insn::CheckCast(c) => format!("checkcast {}", cname(*c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;

    #[test]
    fn declaration_of_sample_x_matches_figure2_surface() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let d = declaration(&u, ids.x);
        assert!(d.contains("public class X"), "{d}");
        assert!(d.contains("Y y;"), "{d}");
        assert!(d.contains("static final Z z;"), "{d}");
        assert!(d.contains("int m(long a0)"), "{d}");
        assert!(d.contains("static int p(int a0)"), "{d}");
        assert!(d.contains("X(Y a0)"), "{d}");
    }

    #[test]
    fn disassembly_mentions_rewritable_sites() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let d = disassemble(&u, ids.x);
        assert!(d.contains("get_field X.y"), "{d}");
        assert!(d.contains("invoke n/1"), "{d}");
        assert!(d.contains("get_static X.z"), "{d}");
        assert!(d.contains("new Z"), "{d}");
    }
}
