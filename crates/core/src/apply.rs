//! Applying a dynamic patch to a running process: **stage**, then **commit**.
//!
//! The pipeline mirrors the paper's dynamic linker, but only part of it
//! needs the program stopped. Verification is a function of the patch and
//! of the type definitions it names — not of live state — so it runs
//! ahead of the pause, where the patch is enqueued:
//!
//! * **stage** ([`stage`], on the enqueuing thread, guest running) —
//!   type-check the patch's object code against the types the target
//!   binds, keeping every definition the verifier consulted as the
//!   patch's [`Certificate`]; precompute the part of link that is a
//!   function of the patch alone. Stage never rejects: a patch that fails
//!   verification here is simply left uncertified.
//!
//! * **commit** ([`commit`], at the update point, guest suspended):
//!
//!   1. **verify** — check the certificate against the process: every
//!      definition it recorded must still be bound, `==`. When it holds,
//!      nothing else runs; when it does not, or there is none (a direct
//!      [`apply_patch`], a patch reloaded from a state blob, a failed
//!      stage), the full verification runs here, exactly as it would have
//!      without staging — nothing unverified is ever linked;
//!   2. **compat** — the update-safety analysis of [`crate::compat`]
//!      (reads the live stack, so it cannot move);
//!   3. **link** — register new type versions, add new globals, resolve
//!      the patch code against current bindings plus patch-internal
//!      targets (this process's ids, so it cannot move either);
//!   4. **bind** — atomically flip name/slot/type bindings, arm the
//!      manifest's remaps both ways (no record is touched: see
//!      [`vm::remap`]) and initialise new globals (the guest is suspended
//!      at an update point throughout, so guest-visibly this is one
//!      instant);
//!   5. **transform** — run hand-written state transformers over the old
//!      global values (reading old-layout records through their aliases)
//!      and commit the new values.
//!
//! There is one apply path: [`apply_patch`] is the commit step run with
//! nothing staged. Any failure rolls the process back to its pre-update
//! bindings via a snapshot; a rejected update is a no-op.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tal::{TypeDef, TypeProvider};
use vm::{BindingSnapshot, LinkOverrides, LinkPlan, Process, ProcessTypes, Value};

use crate::compat;
use crate::patch::Patch;
use crate::report::{PhaseTimings, UpdateError, UpdateReport, Verification};

/// A per-thread apply-phase observer; see [`set_phase_probe`].
type PhaseProbe = Box<dyn FnMut(&'static str)>;

thread_local! {
    /// Per-thread observer fired at the start of each apply phase; see
    /// [`set_phase_probe`].
    static PHASE_PROBE: RefCell<Option<PhaseProbe>> = const { RefCell::new(None) };
}

/// Installs (or clears, with `None`) a thread-local probe invoked with the
/// phase name at the *start* of each apply-pipeline phase (`verify`,
/// `compat`, `link`, `bind`, `init`, `transform`) on this thread.
///
/// The probe exists for fault injection and fine-grained instrumentation:
/// a harness can stall or panic at an exact point inside the update pause
/// (e.g. mid-transform) without the pipeline carrying test-only hooks.
/// Probes are per-thread, so a fleet can arm one worker while its siblings
/// apply patches unperturbed.
pub fn set_phase_probe(probe: Option<PhaseProbe>) {
    PHASE_PROBE.with(|p| *p.borrow_mut() = probe);
}

fn probe_phase(name: &'static str) {
    PHASE_PROBE.with(|p| {
        if let Some(f) = p.borrow_mut().as_mut() {
            f(name);
        }
    });
}

/// Tunable update behaviour (the ablation axes of the evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatePolicy {
    /// Verify patch object code before linking (paper default: on) — at
    /// stage, with the certificate checked at commit, or in full at commit
    /// when nothing holding was staged. The off setting exists only to
    /// measure verification's share of an update — it turns off stage and
    /// check together and trades away the safety guarantee.
    pub verify: bool,
    /// Refuse the update when *any* function listed in the manifest is on
    /// the guest stack (Ginseng-style strict activeness). The paper's
    /// semantics (`false`) lets old frames finish under old code; the
    /// type-change and signature-change rules in [`crate::compat`] still
    /// refuse the genuinely unsafe cases.
    pub refuse_active: bool,
}

impl Default for UpdatePolicy {
    fn default() -> UpdatePolicy {
        UpdatePolicy {
            verify: true,
            refuse_active: false,
        }
    }
}

/// Real per-phase intervals, filled by the commit step when the caller
/// wants trace spans: each entry is `(phase name, start instant,
/// duration)` where the duration is byte-identical to the value stored
/// into [`PhaseTimings`] — so spans, timings and journal events all
/// carry the same numbers.
#[derive(Debug, Default, Clone)]
pub(crate) struct PhaseSpanLog {
    /// `(phase, started, dur)` in pipeline order.
    pub phases: Vec<(&'static str, Instant, Duration)>,
}

impl PhaseSpanLog {
    /// Records one phase interval (also used for phases that never pass
    /// through the pipeline, e.g. a snapshot restore's `bind`).
    pub fn push(&mut self, name: &'static str, started: Instant, dur: Duration) {
        self.phases.push((name, started, dur));
    }
}

/// What a successful ahead-of-time verification consulted of its
/// environment: every `(name, definition)` the verifier looked up through
/// [`TypeProvider::lookup_type`] — its only door to the process — in
/// first-consulted order. Verification is a deterministic function of the
/// module and of these answers (imports are typed by the module's own
/// symbol table and checked against the process by the *linker*, inside
/// the pause), so "this module verified" stays true in any process that
/// still binds each name to an equal definition. That is a content check:
/// no generation counter, no per-process key, the same answer on every
/// replica of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    consulted: Vec<(String, TypeDef)>,
}

impl Certificate {
    /// The definitions verification consulted, in first-consulted order.
    pub fn consulted(&self) -> &[(String, TypeDef)] {
        &self.consulted
    }

    /// The first consulted name `types` no longer binds to a definition
    /// `==` the recorded one; `None` means the certificate holds.
    pub fn stale(&self, types: &dyn TypeProvider) -> Option<&str> {
        self.consulted
            .iter()
            .find(|(name, def)| types.lookup_type(name) != Some(def))
            .map(|(name, _)| name.as_str())
    }
}

/// A [`TypeProvider`] that remembers what it was asked.
struct Recording<'a> {
    types: &'a dyn TypeProvider,
    consulted: RefCell<Vec<(String, TypeDef)>>,
    /// A lookup found nothing. The verifier rejects every module for
    /// which that happens; should it ever not, the run certifies nothing
    /// (an absence is not recorded, so it could not be re-checked).
    missed: Cell<bool>,
}

impl TypeProvider for Recording<'_> {
    fn lookup_type(&self, name: &str) -> Option<&TypeDef> {
        let found = self.types.lookup_type(name);
        match found {
            Some(def) => {
                let mut consulted = self.consulted.borrow_mut();
                if !consulted.iter().any(|(n, _)| n == name) {
                    consulted.push((name.to_string(), def.clone()));
                }
            }
            None => self.missed.set(true),
        }
        found
    }
}

/// The half of link that is a function of the patch alone.
#[derive(Debug)]
struct Plan {
    link: LinkPlan,
    /// Indices into `module.types` of the definitions that get fresh
    /// registrations: everything that is not an old-version alias.
    new_types: Vec<usize>,
    /// Per `manifest.new_globals` entry, its index in `module.globals`.
    new_globals: Vec<Option<usize>>,
    /// Per `manifest.transformers` entry, its index in `module.functions`.
    transformers: Vec<Option<usize>>,
}

impl Plan {
    fn of(patch: &Patch) -> Plan {
        let (module, m) = (&patch.module, &patch.manifest);
        Plan {
            link: LinkPlan::of(module),
            new_types: (0..module.types.len())
                .filter(|&i| {
                    !m.type_aliases
                        .iter()
                        .any(|a| a.alias == module.types[i].name)
                })
                .collect(),
            new_globals: m
                .new_globals
                .iter()
                .map(|g| module.globals.iter().position(|d| d.name == *g))
                .collect(),
            transformers: m
                .transformers
                .iter()
                .map(|x| module.functions.iter().position(|f| f.name == x.function))
                .collect(),
        }
    }
}

/// Everything [`stage`] computed ahead of the pause.
#[derive(Debug)]
struct Ahead {
    /// `None` when verification failed at stage: commit verifies in full
    /// and rejects with the typed error.
    certificate: Option<Certificate>,
    plan: Plan,
    /// [`Patch::size_bytes`], for the report.
    size_bytes: usize,
}

/// A patch together with whatever was computed for it ahead of the pause:
/// one immutable value, shared by `Arc` between every process the patch
/// is enqueued on (a fleet rollout stages once and hands each worker the
/// same one). Only [`stage`] makes certified ones, so a certificate always
/// belongs to the patch it travels with.
#[derive(Debug)]
pub struct StagedPatch {
    patch: Patch,
    ahead: Option<Ahead>,
    /// What the stage cost, until the first lifecycle that enqueues (or
    /// directly commits) this value claims it — charged once, like the
    /// drain wait, so per-lifecycle `staged` figures sum to the time spent.
    cost: Mutex<Option<Duration>>,
}

impl StagedPatch {
    /// Wraps `patch` with nothing staged: commit does everything in the
    /// pause, as [`apply_patch`] does.
    pub(crate) fn unstaged(patch: Patch) -> StagedPatch {
        StagedPatch {
            patch,
            ahead: None,
            cost: Mutex::new(None),
        }
    }

    /// The patch.
    pub fn patch(&self) -> &Patch {
        &self.patch
    }

    /// The certificate, when the patch verified at stage.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.ahead.as_ref()?.certificate.as_ref()
    }

    /// Takes the stage's cost; `None` once claimed (or nothing was staged).
    pub(crate) fn claim_cost(&self) -> Option<Duration> {
        self.cost.lock().expect("poisoned").take()
    }
}

/// The stage step: verifies `patch` against `types` — the types its
/// target binds *now* — recording what verification consulted as the
/// patch's [`Certificate`], and precomputes the patch-only half of link.
/// Runs where a patch is enqueued, on the enqueuing thread, never on a
/// thread that holds a suspended process.
///
/// Stage never rejects: when verification fails the result carries no
/// certificate and [`commit`] verifies in full, rejecting with the same
/// typed error at the update point. With `policy.verify` off nothing is
/// staged at all.
pub fn stage(patch: Patch, types: &dyn TypeProvider, policy: UpdatePolicy) -> Arc<StagedPatch> {
    if !policy.verify {
        return Arc::new(StagedPatch::unstaged(patch));
    }
    let began = Instant::now();
    let recording = Recording {
        types,
        consulted: RefCell::new(Vec::new()),
        missed: Cell::new(false),
    };
    let verified = tal::verify_module(&patch.module, &recording).is_ok();
    let certificate = (verified && !recording.missed.get()).then(|| Certificate {
        consulted: recording.consulted.into_inner(),
    });
    let ahead = Ahead {
        certificate,
        plan: Plan::of(&patch),
        size_bytes: patch.size_bytes(),
    };
    Arc::new(StagedPatch {
        patch,
        ahead: Some(ahead),
        cost: Mutex::new(Some(began.elapsed())),
    })
}

/// Applies `patch` to `proc` under `policy`: the commit step with nothing
/// staged — verification and the whole of link run here, in the pause.
///
/// The caller is responsible for quiescence: either the process is
/// suspended at an update point, or no guest code is running (see
/// [`crate::runtime::Updater`] for the driver that manages this).
///
/// # Errors
///
/// Returns an [`UpdateError`]; the process is left exactly as it was.
pub fn apply_patch(
    proc: &mut Process,
    patch: &Patch,
    policy: UpdatePolicy,
) -> Result<UpdateReport, UpdateError> {
    commit_spanned(proc, patch, None, policy, None).map(|c| c.report)
}

/// The commit step: applies a staged patch to `proc` under `policy`. The
/// certificate is re-checked against `proc`, never trusted — see the
/// module docs for the rule. Quiescence is the caller's job, as for
/// [`apply_patch`].
///
/// # Errors
///
/// Returns an [`UpdateError`]; the process is left exactly as it was.
pub fn commit(
    proc: &mut Process,
    staged: &StagedPatch,
    policy: UpdatePolicy,
) -> Result<UpdateReport, UpdateError> {
    let mut report = staged.commit_spanned(proc, policy, None)?.report;
    report.timings.staged = staged.claim_cost().unwrap_or_default();
    Ok(report)
}

/// A successful commit: its report, and the binding snapshot taken just
/// before the process was first touched (the pipeline's own rollback
/// point, which is also what the updater's snapshot ring retains).
pub(crate) struct Committed {
    pub report: UpdateReport,
    pub before: BindingSnapshot,
}

impl StagedPatch {
    /// [`commit`], additionally recording one real `(start, dur)` interval
    /// per pipeline phase into `spans` — the update-side feed of the
    /// tracing layer — and handing back the pre-update snapshot.
    pub(crate) fn commit_spanned(
        &self,
        proc: &mut Process,
        policy: UpdatePolicy,
        spans: Option<&mut PhaseSpanLog>,
    ) -> Result<Committed, UpdateError> {
        commit_spanned(proc, &self.patch, self.ahead.as_ref(), policy, spans)
    }
}

fn commit_spanned(
    proc: &mut Process,
    patch: &Patch,
    ahead: Option<&Ahead>,
    policy: UpdatePolicy,
    mut spans: Option<&mut PhaseSpanLog>,
) -> Result<Committed, UpdateError> {
    let mut timings = PhaseTimings::default();

    // Strict activeness policy (ablation): refuse if any updated function
    // is live on the stack.
    if policy.refuse_active {
        let active = proc.suspended_stack();
        let offenders: Vec<String> = active
            .into_iter()
            .filter(|f| patch.manifest.replaces.contains(f) || patch.manifest.removes.contains(f))
            .collect();
        if !offenders.is_empty() {
            return Err(UpdateError::ActiveCode(offenders));
        }
    }

    // Phase 1: verify — the certificate check, or failing that the real
    // thing.
    probe_phase("verify");
    let t = Instant::now();
    let verification = if policy.verify {
        let types = ProcessTypes(proc);
        let verification = match ahead.and_then(|a| a.certificate.as_ref()) {
            None => Verification::NoCertificate,
            Some(c) => match c.stale(&types) {
                None => Verification::CertificateHeld,
                Some(changed) => Verification::Reverified {
                    changed: changed.to_string(),
                },
            },
        };
        if verification != Verification::CertificateHeld {
            tal::verify_module(&patch.module, &types)?;
        }
        verification
    } else {
        Verification::Skipped
    };
    timings.verify = t.elapsed();
    if let Some(s) = spans.as_deref_mut() {
        s.push("verify", t, timings.verify);
    }

    // Phase 2: compatibility.
    probe_phase("compat");
    let t = Instant::now();
    compat::check(proc, patch)?;
    timings.compat = t.elapsed();
    if let Some(s) = spans.as_deref_mut() {
        s.push("compat", t, timings.compat);
    }

    // Everything past this point mutates the process; roll back on error.
    let before = proc.snapshot();
    let plan = ahead.map(|a| &a.plan);
    match apply_linked(proc, patch, plan, &mut timings, spans) {
        Ok(globals_transformed) => {
            let m = &patch.manifest;
            let report = UpdateReport {
                from_version: patch.from_version.clone(),
                to_version: patch.to_version.clone(),
                timings,
                verification,
                functions_replaced: m.replaces.len(),
                functions_added: m.adds.len(),
                functions_removed: m.removes.len(),
                types_changed: m.type_changes.len(),
                globals_transformed,
                patch_bytes: ahead.map_or_else(|| patch.size_bytes(), |a| a.size_bytes),
                // The runtime flips this for inverse patches; the commit
                // itself is direction-agnostic (a downgrade is an apply).
                rolled_back: false,
            };
            Ok(Committed { report, before })
        }
        Err(e) => {
            proc.restore(before);
            Err(e)
        }
    }
}

/// Phases 3-5. Returns the number of globals transformed. What
/// [`compat::check`] guarantees is re-checked where it is relied on: a miss
/// is an [`UpdateError::Compat`] the caller rolls back, never a panic
/// inside the pause.
fn apply_linked(
    proc: &mut Process,
    patch: &Patch,
    plan: Option<&Plan>,
    timings: &mut PhaseTimings,
    mut spans: Option<&mut PhaseSpanLog>,
) -> Result<usize, UpdateError> {
    let m = &patch.manifest;
    let compat = UpdateError::Compat;

    // Phase 3: link.
    probe_phase("link");
    let t = Instant::now();
    // Nothing staged: the patch-only half is done here, and charged here.
    let unstaged;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            unstaged = Plan::of(patch);
            &unstaged
        }
    };
    let mut ov = LinkOverrides::default();
    // Aliases resolve to the old registrations.
    for alias in &m.type_aliases {
        let sid = proc.struct_id(&alias.target).ok_or_else(|| {
            compat(format!(
                "alias target `{}` is not a bound type",
                alias.target
            ))
        })?;
        ov.types.insert(alias.alias.clone(), sid);
    }
    // Changed and new types get fresh registrations (names flip at bind).
    let mut new_type_binds: Vec<(&str, vm::StructId)> = Vec::with_capacity(plan.new_types.len());
    for &i in &plan.new_types {
        let def = &patch.module.types[i];
        let sid = proc.register_struct(def.clone());
        ov.types.insert(def.name.clone(), sid);
        new_type_binds.push((&def.name, sid));
    }
    // New globals exist (with defaults) before code resolution.
    let mut new_globals = Vec::with_capacity(m.new_globals.len());
    for (gname, idx) in m.new_globals.iter().zip(&plan.new_globals) {
        let idx = idx
            .ok_or_else(|| compat(format!("new global `{gname}` is not defined by the module")))?;
        let gdef = &patch.module.globals[idx];
        proc.add_global(gname.clone(), gdef.ty.clone(), Value::default_for(&gdef.ty))?;
        new_globals.push(gdef);
    }
    let planned = proc.link_planned(&patch.module, &plan.link, &ov)?;
    // Transformers by code id: their names are unbound again below.
    let mut transformers = Vec::with_capacity(m.transformers.len());
    for (x, idx) in m.transformers.iter().zip(&plan.transformers) {
        let idx = idx.ok_or_else(|| {
            compat(format!(
                "transformer `{}` is not defined by the module",
                x.function
            ))
        })?;
        transformers.push((x, planned[idx].1));
    }
    timings.link = t.elapsed();
    if let Some(s) = spans.as_deref_mut() {
        s.push("link", t, timings.link);
    }

    // Phase 4: bind — the atomic flip.
    probe_phase("bind");
    let t = Instant::now();
    for (name, id) in &planned {
        proc.bind_function(name, *id);
    }
    for name in &m.removes {
        proc.unbind_function(name);
    }
    for (name, sid) in new_type_binds {
        if m.remaps.iter().any(|r| r == name) {
            let old = proc
                .struct_id(name)
                .ok_or_else(|| compat(format!("remapped type `{name}` is not bound")))?;
            proc.arm_remap(old, sid).map_err(compat)?;
        }
        proc.bind_type_name(name, sid);
    }
    timings.bind = t.elapsed();
    if let Some(s) = spans.as_deref_mut() {
        s.push("bind", t, timings.bind);
    }

    // Phase 4b: new-global initialisers run in the new code world. They
    // get their own timing bucket so Table 2's pause breakdown does not
    // charge initialisation to state transformation.
    probe_phase("init");
    let t = Instant::now();
    for gdef in new_globals {
        let v =
            proc.eval_init(&patch.module, gdef, &ov)
                .map_err(|trap| UpdateError::Transform {
                    function: format!("<init {}>", gdef.name),
                    trap,
                })?;
        proc.set_global(&gdef.name, v);
    }
    // An empty phase reports zero rather than bare timer overhead.
    timings.init = if m.new_globals.is_empty() {
        Duration::ZERO
    } else {
        t.elapsed()
    };
    if let Some(s) = spans.as_deref_mut() {
        s.push("init", t, timings.init);
    }

    // Phase 5: transform. Stage all new values against the *old* state,
    // then commit, so transformers never observe each other's output.
    probe_phase("transform");
    let t = Instant::now();
    let mut staged: Vec<(&str, Value)> = Vec::with_capacity(transformers.len());
    for &(x, fid) in &transformers {
        let old = proc
            .global_value(&x.global)
            .ok_or_else(|| compat(format!("transformer targets unknown global `{}`", x.global)))?;
        let new = proc
            .call_fid(fid, vec![old])
            .map_err(|trap| UpdateError::Transform {
                function: x.function.clone(),
                trap,
            })?;
        staged.push((&x.global, new));
    }
    for (global, value) in staged {
        proc.set_global(global, value);
    }
    // Transformers are one-shot: unbind their names so they neither
    // pollute the interface nor pin old type versions against future
    // updates.
    for x in &m.transformers {
        proc.unbind_function(&x.function);
    }
    timings.transform = if m.transformers.is_empty() {
        Duration::ZERO
    } else {
        t.elapsed()
    };
    if let Some(s) = spans {
        s.push("transform", t, timings.transform);
    }

    proc.request_update(false);
    Ok(transformers.len())
}
