//! # rafda-classmodel
//!
//! A Java-like class model with a stack-based mini-bytecode IR.
//!
//! This crate is the substrate that stands in for Java bytecode + BCEL in the
//! RAFDA reproduction. It models exactly the surface the paper's
//! transformations operate on:
//!
//! * classes and interfaces with single inheritance plus interface
//!   implementation,
//! * instance and static fields ("attributes" in the paper),
//! * instance and static methods, constructors and static initialisers,
//! * `native` methods (which make a class non-transformable),
//! * classes with *special JVM semantics* (e.g. the `Throwable` hierarchy),
//! * method bodies as a verified stack-based instruction stream.
//!
//! The model is held in a [`ClassUniverse`], which interns class names and
//! method signatures so that the transformation engine (`rafda-transform`)
//! can rewrite call sites cheaply and the interpreter (`rafda-vm`) can
//! dispatch dynamically.
//!
//! ## Example
//!
//! Build the paper's Figure 2 sample class `X` and verify it:
//!
//! ```
//! use rafda_classmodel::{ClassUniverse, sample};
//!
//! let mut universe = ClassUniverse::new();
//! let ids = sample::build_figure2(&mut universe);
//! rafda_classmodel::verify::verify_universe(&universe).unwrap();
//! assert_eq!(&*universe.class(ids.x).name, "X");
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod class;
pub mod insn;
pub mod pretty;
pub mod sample;
pub mod ty;
pub mod universe;
pub mod verify;

pub use builder::{ClassBuilder, MethodBuilder};
pub use class::{
    Class, ClassKind, ClassOrigin, Field, GenKind, Method, MethodBody, Role, Side, TryHandler,
    Visibility,
};
pub use insn::{BinOp, CmpOp, Const, FieldRef, Insn, UnOp};
pub use ty::Ty;
pub use universe::{ClassId, ClassUniverse, MethodSig, SigId};
pub use verify::{verify_class, verify_universe, VerifyError};
