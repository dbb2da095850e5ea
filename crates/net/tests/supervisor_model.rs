//! Model battery for the restart state machine ([`Supervisor`]) both
//! supervisors share: the in-process cluster and `cusp-part launch`.
//!
//! The machine never reads the clock, so the battery drives it on a
//! virtual timeline — one `Instant` taken as the origin, advanced by
//! arithmetic — through random schedules of host deaths and ticks on 1–8
//! hosts, and checks it against a plain model. Nothing here sleeps.
//! `PROPTEST_STUB_SEED` offsets every schedule; CI runs a date-derived one.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use cusp_net::{restart_backoff, ClusterError, RecoveryOptions, Supervisor};

/// What the model expects of one host.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Host {
    Running,
    /// Dead, respawn due at the deadline (`None`: never, the backoff
    /// overflows the clock).
    Pending(Option<Instant>),
    /// Dead for good: its death exhausted the budget.
    Lost,
}

fn base_backoff() -> impl Strategy<Value = Duration> {
    prop_oneof![
        Just(Duration::ZERO),
        (1u64..50).prop_map(Duration::from_millis),
        (1u64..1_000_000).prop_map(Duration::from_secs),
        Just(Duration::MAX),
    ]
}

/// One scheduled step: `kind < 2` kills `host % hosts` (if it is running),
/// anything else ticks; every step first advances the clock by `dt_ms`.
fn schedule() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    prop::collection::vec((0u8..5, 0usize..8, 0u64..60), 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// Random schedules of deaths and ticks: incarnations rise by exactly
    /// one per respawn, no respawn fires before its deadline and none is
    /// missed after it, each backoff doubles the host's previous one up to
    /// the cap, `HostLost` comes exactly when a host's budget is spent, and
    /// nothing respawns after it. Every host's deadline derives from its
    /// own death alone, so overlapping backoffs are scheduled
    /// independently.
    #[test]
    fn random_schedules_keep_the_restart_contract(
        hosts in 1usize..9,
        max_restarts in 0u32..12,
        base in base_backoff(),
        steps in schedule(),
    ) {
        let opts = RecoveryOptions { max_restarts, restart_backoff: base, ..Default::default() };
        let mut sup = Supervisor::new(hosts, opts);
        let mut model = vec![Host::Running; hosts];
        let mut incarnation = vec![0u32; hosts];
        let mut last_backoff: Vec<Option<Duration>> = vec![None; hosts];
        let mut lost = false;
        let mut now = Instant::now();

        for (kind, pick, dt_ms) in steps {
            now += Duration::from_millis(dt_ms);
            let h = pick % hosts;
            if kind < 2 && model[h] == Host::Running {
                let verdict = sup.died(h, now);
                if incarnation[h] >= max_restarts {
                    prop_assert_eq!(
                        verdict,
                        Err(ClusterError::HostLost { host: h, restarts: incarnation[h] })
                    );
                    model[h] = Host::Lost;
                    lost = true;
                } else {
                    let Ok(backoff) = verdict else {
                        return Err(TestCaseError::fail(format!(
                            "host {h} lost with {} of {max_restarts} restarts used",
                            incarnation[h]
                        )));
                    };
                    let attempt = incarnation[h] + 1;
                    let want = match last_backoff[h] {
                        None => base,
                        Some(prev) if attempt <= 9 => prev.saturating_mul(2),
                        Some(prev) => prev,
                    };
                    prop_assert_eq!(backoff, want, "attempt {} of host {}", attempt, h);
                    last_backoff[h] = Some(backoff);
                    model[h] = Host::Pending(now.checked_add(backoff));
                }
            }

            for (h, inc) in sup.due(now) {
                prop_assert!(!lost, "host {} respawned after HostLost", h);
                let Host::Pending(deadline) = model[h] else {
                    let why = format!("host {h} respawned while {:?}", model[h]);
                    return Err(TestCaseError::fail(why));
                };
                prop_assert!(
                    deadline.is_some_and(|d| d <= now),
                    "host {} respawned before its deadline {:?}",
                    h,
                    deadline
                );
                prop_assert_eq!(inc, incarnation[h] + 1, "host {} skipped an incarnation", h);
                incarnation[h] = inc;
                model[h] = Host::Running;
            }

            let mut next: Option<Instant> = None;
            for (h, state) in model.iter().enumerate() {
                let pending = matches!(state, Host::Pending(_)) && !lost;
                prop_assert_eq!(sup.pending(h), pending, "pending flag of host {}", h);
                prop_assert_eq!(sup.incarnation(h), incarnation[h]);
                if let (Host::Pending(Some(d)), false) = (state, lost) {
                    prop_assert!(*d > now, "host {} missed its respawn at {:?}", h, d);
                    next = Some(next.map_or(*d, |n| n.min(*d)));
                }
            }
            prop_assert_eq!(sup.next_deadline(), next);
            let respawns: u64 = incarnation.iter().map(|&i| i as u64).sum();
            prop_assert_eq!(sup.respawns(), respawns);
        }
    }

    /// The one backoff formula: the base on the first attempt, doubling
    /// per attempt up to the cap, flat after it, saturating instead of
    /// overflowing — and never panicking, whatever the base or attempt.
    #[test]
    fn backoff_doubles_up_to_one_cap(base in base_backoff(), attempt in 1u32..64) {
        prop_assert_eq!(restart_backoff(base, 1), base);
        let (this, next) = (restart_backoff(base, attempt), restart_backoff(base, attempt + 1));
        if attempt <= 8 {
            prop_assert_eq!(next, this.saturating_mul(2));
        } else {
            prop_assert_eq!(next, this);
        }
        prop_assert_eq!(restart_backoff(base, u32::MAX), restart_backoff(base, 9));
        prop_assert_eq!(restart_backoff(base, 0), base);
    }
}

/// A second host dying while the first waits out its backoff gets its own
/// deadline: neither death delays or hastens the other's respawn.
#[test]
fn overlapping_backoffs_are_scheduled_independently() {
    let ms = Duration::from_millis;
    let opts = RecoveryOptions { max_restarts: 3, restart_backoff: ms(100), ..Default::default() };
    let mut sup = Supervisor::new(3, opts);
    let t0 = Instant::now();
    assert_eq!(sup.died(0, t0), Ok(ms(100)));
    assert_eq!(sup.died(1, t0 + ms(30)), Ok(ms(100)));
    assert_eq!(sup.next_deadline(), Some(t0 + ms(100)));
    assert_eq!(sup.due(t0 + ms(99)), vec![]);
    assert_eq!(sup.due(t0 + ms(100)), vec![(0, 1)]);
    assert_eq!(sup.next_deadline(), Some(t0 + ms(130)));
    // Host 0 dies again inside host 1's backoff: its second attempt waits
    // twice as long, host 1's deadline stays put.
    assert_eq!(sup.died(0, t0 + ms(110)), Ok(ms(200)));
    assert_eq!(sup.due(t0 + ms(130)), vec![(1, 1)]);
    assert_eq!(sup.due(t0 + ms(309)), vec![]);
    assert_eq!(sup.due(t0 + ms(310)), vec![(0, 2)]);
    assert_eq!(sup.next_deadline(), None);
    assert_eq!(sup.respawns(), 3);
}

/// A host whose budget runs out ends the run: the verdict names it and
/// the restarts it used, and respawns already scheduled never fire.
#[test]
fn host_lost_cancels_every_pending_respawn() {
    let opts =
        RecoveryOptions { max_restarts: 1, restart_backoff: Duration::ZERO, ..Default::default() };
    let mut sup = Supervisor::new(2, opts);
    let t0 = Instant::now();
    assert_eq!(sup.died(0, t0), Ok(Duration::ZERO));
    assert_eq!(sup.due(t0), vec![(0, 1)]);
    assert_eq!(sup.died(1, t0), Ok(Duration::ZERO));
    assert_eq!(sup.died(0, t0), Err(ClusterError::HostLost { host: 0, restarts: 1 }));
    assert!(!sup.pending(1));
    assert_eq!(sup.next_deadline(), None);
    assert_eq!(sup.due(t0 + Duration::from_secs(1)), vec![]);
}

/// `Duration::MAX` as the base backoff neither panics nor respawns: the
/// deadline lies past the clock's range, so it never comes due.
#[test]
fn max_duration_backoff_never_comes_due() {
    let opts =
        RecoveryOptions { max_restarts: 2, restart_backoff: Duration::MAX, ..Default::default() };
    let mut sup = Supervisor::new(1, opts);
    let t0 = Instant::now();
    assert_eq!(sup.died(0, t0), Ok(Duration::MAX));
    assert!(sup.pending(0));
    assert_eq!(sup.next_deadline(), None);
    assert_eq!(sup.due(t0 + Duration::from_secs(1 << 30)), vec![]);
    assert_eq!(sup.incarnation(0), 0);
}

/// Zero restarts allowed: the first death is already fatal.
#[test]
fn zero_budget_loses_the_first_death() {
    let opts = RecoveryOptions { max_restarts: 0, ..Default::default() };
    let mut sup = Supervisor::new(4, opts);
    let verdict = sup.died(2, Instant::now());
    assert_eq!(verdict, Err(ClusterError::HostLost { host: 2, restarts: 0 }));
}
