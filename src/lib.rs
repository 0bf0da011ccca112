//! # dsu — Dynamic Software Updating (PLDI 2001) in Rust
//!
//! Facade crate re-exporting the whole reproduction:
//!
//! * [`tal`] — typed, relinkable bytecode with a verifier (the TAL
//!   analogue: verifiable object code for programs and patches);
//! * [`popcorn`] — the guest language (a safe C dialect with `update;`
//!   points) compiling to `tal`;
//! * [`vm`] — the interpreter with *static* and *updateable*
//!   (indirection-table) link modes;
//! * [`dsu_core`] (re-exported as `core`) — the paper's contribution: dynamic patches,
//!   verification, update-safety analysis, atomic rebinding, state
//!   transformers, patch generation, rollback;
//! * [`flashed`] — the FlashEd web-server case study and its patch
//!   stream.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ```
//! use dsu::prelude::*;
//!
//! let v1 = popcorn::compile(
//!     "fun answer(): int { return 41; }",
//!     "app", "v1", &popcorn::Interface::new())?;
//! let mut proc = Process::new(LinkMode::Updateable);
//! proc.load_module(&v1)?;
//!
//! let patch = compile_patch(
//!     "fun answer(): int { return 42; }",
//!     "v1", "v2", &interface_of(&proc),
//!     Manifest { replaces: vec!["answer".into()], ..Manifest::default() })?;
//! apply_patch(&mut proc, &patch, UpdatePolicy::default())?;
//! assert_eq!(proc.call("answer", vec![])?, Value::Int(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dsu_core as core;
pub use flashed;
pub use popcorn;
pub use tal;
pub use vm;

/// The common imports for writing updateable programs and patches.
pub mod prelude {
    pub use dsu_core::{
        apply_patch, compile_patch, interface_of, Manifest, Patch, PatchGen, Transformer,
        TypeAlias, UpdateError, UpdatePolicy, UpdateReport, Updater,
    };
    pub use vm::{LinkMode, Outcome, Process, Value};
}
