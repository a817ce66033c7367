//! Naming conventions for generated artefacts, exactly as in the paper:
//! for a class `A` the family is `A_O_Int`, `A_O_Local`, `A_O_Proxy_<P>`,
//! `A_C_Int`, `A_C_Local`, `A_C_Proxy_<P>`, `A_O_Factory`, `A_C_Factory`;
//! each attribute `f` becomes a property with accessors `get_f`/`set_f`.

use rafda_classmodel::{Role, Side};

/// The name of the `role` artefact of `class`'s `side` half: `A_O_Int` is
/// the instance-members interface, `A_C_Local` the non-remote singleton
/// implementing the static members, `A_O_Proxy_<P>` the remote instance
/// proxy for protocol `P`, `A_O_Factory` the object factory (`make` +
/// `init$k`), `A_C_Factory` the class factory (`discover` + `clinit`).
pub fn artefact(class: &str, side: Side, role: &Role) -> String {
    let half = match side {
        Side::Obj => 'O',
        Side::Cls => 'C',
    };
    match role {
        Role::Interface => format!("{class}_{half}_Int"),
        Role::Local => format!("{class}_{half}_Local"),
        Role::Proxy(protocol) => format!("{class}_{half}_Proxy_{protocol}"),
        Role::Factory => format!("{class}_{half}_Factory"),
    }
}

/// Property getter name for attribute `f`.
pub fn getter(field: &str) -> String {
    format!("get_{field}")
}

/// Property setter name for attribute `f`.
pub fn setter(field: &str) -> String {
    format!("set_{field}")
}

/// Factory initialisation method for constructor ordinal `k` (`init` in the
/// paper, disambiguated per constructor).
pub fn init_method(ctor: usize) -> String {
    format!("init${ctor}")
}

/// The object-creation method (paper: `make`).
pub const MAKE: &str = "make";

/// The class-discovery method (paper: `discover`).
pub const DISCOVER: &str = "discover";

/// The translated static-initialiser method on the class factory
/// (paper: `clinit`).
pub const CLINIT: &str = "clinit";

/// The original class name of a generated artefact, if the name matches a
/// generated pattern.
pub fn base_of(generated: &str) -> Option<&str> {
    for marker in [
        "_O_Int",
        "_O_Local",
        "_C_Int",
        "_C_Local",
        "_O_Factory",
        "_C_Factory",
    ] {
        if let Some(base) = generated.strip_suffix(marker) {
            return Some(base);
        }
    }
    for marker in ["_O_Proxy_", "_C_Proxy_"] {
        if let Some(pos) = generated.find(marker) {
            return Some(&generated[..pos]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        let soap = Role::Proxy("SOAP".to_owned());
        let rmi = Role::Proxy("RMI".to_owned());
        assert_eq!(artefact("X", Side::Obj, &Role::Interface), "X_O_Int");
        assert_eq!(artefact("X", Side::Obj, &Role::Local), "X_O_Local");
        assert_eq!(artefact("X", Side::Obj, &soap), "X_O_Proxy_SOAP");
        assert_eq!(artefact("X", Side::Cls, &Role::Interface), "X_C_Int");
        assert_eq!(artefact("X", Side::Cls, &Role::Local), "X_C_Local");
        assert_eq!(artefact("X", Side::Cls, &rmi), "X_C_Proxy_RMI");
        assert_eq!(artefact("X", Side::Obj, &Role::Factory), "X_O_Factory");
        assert_eq!(artefact("X", Side::Cls, &Role::Factory), "X_C_Factory");
        assert_eq!(getter("y"), "get_y");
        assert_eq!(setter("y"), "set_y");
    }

    #[test]
    fn base_of_inverts_generation() {
        for name in [
            "X_O_Int",
            "X_O_Local",
            "X_O_Proxy_SOAP",
            "X_C_Int",
            "X_C_Local",
            "X_C_Proxy_RMI",
            "X_O_Factory",
            "X_C_Factory",
        ] {
            assert_eq!(base_of(name), Some("X"), "{name}");
        }
        assert_eq!(base_of("X"), None);
        assert_eq!(base_of("Observer"), None);
    }
}
