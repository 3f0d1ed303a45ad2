"""The fault-injection and litmus-test workload axes.

Three new ``verify()`` axes ride on the same differential-oracle contract as
the rest of the engine -- the compiled kernel must agree bit-identically with
the object executor on every one of them:

* **fault injection** -- per-channel message duplication and bounded
  adjacent reordering beyond the unordered model
  (:class:`~repro.system.system.FaultModel`);
* **multi-address workloads** -- per-address directory/cache-block planes so
  a search interleaves accesses to independent blocks
  (``System(num_addresses=2)``);
* **litmus tests** -- data values through ``Data`` messages and memory, with
  :class:`~repro.verification.invariants.LitmusInvariant` checking
  final-observed-value outcomes (SB, MP, coRR bundled in
  :mod:`repro.verification.litmus`).

The empirical headline this module pins: **every bundled protocol passes all
three litmus tests fault-free, and -- with the generation-level hardening
pass (``GenerationConfig.harden``) -- survives both measured fault classes.**
A duplicated response is absorbed by generated idempotence reactions
(miss-report + directory-side recovery), and a reordered ordered channel no
longer head-of-line-deadlocks the stalling configurations (re-queue
semantics).  The full PASS matrix is pinned per protocol and per concurrency
policy, bit-identical across both kernels with zero decodes on the compiled
reduced path.  The pre-hardening counterexamples survive in
``test_fault_regressions.py`` against ``harden=False`` builds.
"""

import pytest

from repro import protocols
from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system.message import Message, message_sort_key
from repro.system.network import OrderedNetwork, UnorderedNetwork
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    FaultModel,
    IssueAccess,
    LitmusWorkload,
    ReorderMessage,
)
from repro.verification import (
    LITMUS_TESTS,
    default_invariants,
    single_owner_invariant,
    verify,
)
from repro.verification.engine.canonical import relabel_event
from repro.verification.invariants import compiled_invariant_codes

from verification_helpers import sample_reachable_states

ALL_PROTOCOLS = protocols.available_protocols()
ORDERED_PROTOCOLS = [n for n in ALL_PROTOCOLS if n != "MSI-Unordered"]


def _workload(name: str, accesses: int = 1) -> Workload:
    if name == "MSI-Unordered":
        # The unordered variant has no eviction path by design.
        return Workload(max_accesses_per_cache=accesses,
                        access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    return Workload(max_accesses_per_cache=accesses)


def _plain_invariants(name: str):
    if name == "TSO-CC":
        # TSO-CC intentionally breaks SWMR in physical time (stale untracked
        # readers); check single ownership, as the rest of the suite does.
        return (single_owner_invariant,)
    return tuple(default_invariants())


def _litmus_invariants(name: str, test):
    return _plain_invariants(name) + (test.invariant,)


# ---------------------------------------------------------------------------
# Network fault primitives
# ---------------------------------------------------------------------------


def _msg(mtype="GetS", src=0, dst=-1, vnet=0, data=None):
    return Message(mtype=mtype, src=src, dst=dst, requestor=max(src, 0),
                   vnet=vnet, data=data)


class TestNetworkFaultPrimitives:
    def test_ordered_duplicate_prepends_a_copy_at_the_head(self):
        m = _msg()
        net = OrderedNetwork().send(m, _msg(data=1))
        dup = net.duplicate(m)
        (_, msgs), = dup.channels
        assert msgs == (m, m, _msg(data=1))

    def test_ordered_duplicate_rejects_non_head_messages(self):
        net = OrderedNetwork().send(_msg(), _msg(data=1))
        with pytest.raises(ValueError):
            net.duplicate(_msg(data=1))

    def test_unordered_duplicate_adds_a_copy_of_any_in_flight_message(self):
        m = _msg()
        net = UnorderedNetwork().send(m, _msg(data=1))
        dup = net.duplicate(m)
        assert sorted(dup.messages, key=message_sort_key) == sorted(
            (m, m, _msg(data=1)), key=message_sort_key
        )
        with pytest.raises(ValueError):
            net.duplicate(_msg(mtype="GetM"))

    def test_ordered_reorderable_lists_adjacent_differing_pairs_only(self):
        a, b = _msg(dst=0, vnet=1), _msg(dst=0, vnet=1, data=1)
        net = OrderedNetwork().send(a, a, b)
        # positions: (a,a) equal -> skipped; (a,b) differ -> swap at 1.
        assert net.reorderable() == ((0, 0, 1, 1),)
        swapped = net.reorder(0, 0, 1, 1)
        (_, msgs), = swapped.channels
        assert msgs == (a, b, a)

    def test_ordered_reorder_rejects_out_of_range_positions(self):
        net = OrderedNetwork().send(_msg(), _msg(data=1))
        with pytest.raises(ValueError):
            net.reorder(0, -1, 0, 5)

    def test_unordered_network_has_no_reorder_axis(self):
        net = UnorderedNetwork().send(_msg(), _msg(data=1))
        assert net.reorderable() == ()
        with pytest.raises(ValueError):
            net.reorder(0, -1, 0, 0)


class TestModelValidation:
    def test_fault_model_requires_an_axis(self):
        with pytest.raises(ValueError):
            FaultModel()

    def test_fault_model_rejects_negative_budgets(self):
        with pytest.raises(ValueError):
            FaultModel(duplicate=True, budget=-1)

    def test_litmus_program_count_must_match_caches(self, msi_nonstalling):
        workload = LitmusWorkload(programs=(((AccessKind.LOAD, 0),),))
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=2, workload=workload)

    def test_num_addresses_must_cover_the_programs(self, msi_nonstalling):
        workload = LitmusWorkload(programs=(
            ((AccessKind.LOAD, 1),), ((AccessKind.STORE, 0),),
        ))
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=2, workload=workload,
                   num_addresses=1)

    def test_fault_events_rejected_without_a_fault_model(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        state = system.initial_state()
        outcome = system.apply(state, DuplicateMessage(message=_msg()))
        assert outcome.error is not None


# ---------------------------------------------------------------------------
# Event codec + symmetry relabeling of fault events
# ---------------------------------------------------------------------------


class TestFaultEventCodecAndRelabel:
    @pytest.fixture()
    def fault_system(self, msi_nonstalling):
        return System(msi_nonstalling, num_caches=2,
                      workload=Workload(max_accesses_per_cache=1),
                      faults=FaultModel(duplicate=True, reorder=True))

    def test_fault_events_round_trip_through_the_codec(self, fault_system):
        codec = fault_system.codec()
        events = [
            DuplicateMessage(message=_msg(mtype=codec.mtypes[0], dst=1, vnet=1)),
            ReorderMessage(src=-1, dst=1, vnet=1, position=2),
        ]
        for event in events:
            assert codec.decode_event(codec.encode_event(event)) == event

    def test_multi_address_events_carry_the_plane(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2,
                        faults=FaultModel(duplicate=True, reorder=True))
        codec = system.codec()
        events = [
            IssueAccess(cache_id=1, access=AccessKind.STORE, addr=1),
            DeliverMessage(message=_msg(mtype=codec.mtypes[0]), addr=1),
            DuplicateMessage(message=_msg(mtype=codec.mtypes[0]), addr=1),
            ReorderMessage(src=0, dst=-1, vnet=0, position=0, addr=1),
        ]
        for event in events:
            assert codec.decode_event(codec.encode_event(event)) == event

    def test_relabel_permutes_fault_event_endpoints(self):
        perm = (1, 0)
        dup = DuplicateMessage(message=_msg(src=0, dst=1, vnet=1))
        relabeled = relabel_event(dup, perm)
        assert isinstance(relabeled, DuplicateMessage)
        assert (relabeled.message.src, relabeled.message.dst) == (1, 0)
        reo = relabel_event(ReorderMessage(src=-1, dst=0, vnet=1, position=3), perm)
        assert (reo.src, reo.dst, reo.position) == (-1, 1, 3)
        # Identity stays the same object (the hot-path fast exit).
        assert relabel_event(dup, (0, 1)) is dup


# ---------------------------------------------------------------------------
# Expansion parity: kernel vs object executor, per state, per axis
# ---------------------------------------------------------------------------


def assert_expansion_parity(system, state, invariants):
    """One-state differential check over every new axis' machinery:
    codec round-trip, event enumeration, successor construction, and the
    quiescence/completion/invariant predicates."""
    codec = system.codec()
    kernel = system.kernel()
    enc = codec.encode(state)
    assert codec.decode(enc) == state
    events = system.enabled_events(state)
    plans, net = kernel.enabled(enc)
    assert [plan[1] for plan in plans] == [codec.encode_event(e) for e in events]
    assert kernel.is_quiescent(enc) == system.is_quiescent(state)
    assert kernel.is_complete(enc) == system.is_complete(state)
    codes = compiled_invariant_codes(invariants)
    expected_verdict = all(inv(system, state) is None for inv in invariants)
    assert kernel.check(enc, codes) == expected_verdict
    for event, plan in zip(events, plans):
        outcome = system.apply(state, event)
        succ = kernel.apply(enc, plan, net)
        if succ is None:
            assert outcome.error is not None, (
                f"kernel delegated {event} but the object executor succeeded"
            )
        else:
            assert outcome.error is None, (
                f"kernel applied {event} but the object executor errored: "
                f"{outcome.error}"
            )
            assert succ == codec.encode(outcome.state), f"successor mismatch on {event}"


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_duplication_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=_workload(name, 2),
                    faults=FaultModel(duplicate=True))
    states = sample_reachable_states(system, seed=61 + len(name), walks=6,
                                     max_steps=30)
    assert any(s.faults_used for s in states), "walks never injected a fault"
    for state in states:
        assert_expansion_parity(system, state, tuple(default_invariants()))


@pytest.mark.parametrize("name", ORDERED_PROTOCOLS)
def test_reorder_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=_workload(name, 2),
                    faults=FaultModel(reorder=True, budget=2))
    states = sample_reachable_states(system, seed=67 + len(name), walks=6,
                                     max_steps=30)
    for state in states:
        assert_expansion_parity(system, state, tuple(default_invariants()))


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_two_address_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=_workload(name, 1), num_addresses=2)
    states = sample_reachable_states(system, seed=71 + len(name), walks=6,
                                     max_steps=30)
    assert any(
        c.fsm_state != system.protocol.cache.initial_state
        for s in states for c in s.caches[system.num_caches:]
    ), "walks never touched the second address plane"
    for state in states:
        assert_expansion_parity(system, state, tuple(default_invariants()))


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_litmus_expansion_parity(all_generated, name):
    from repro.verification import message_passing

    test = message_passing()
    system = System(all_generated[(name, "stalling")], num_caches=2,
                    workload=test.workload)
    states = sample_reachable_states(system, seed=73 + len(name), walks=6,
                                     max_steps=30)
    assert any(system.is_complete(s) for s in states), (
        "walks never completed the litmus programs"
    )
    for state in states:
        assert_expansion_parity(system, state, _litmus_invariants(name, test))


# ---------------------------------------------------------------------------
# Whole-search parity and the documented fault outcomes
# ---------------------------------------------------------------------------


def _search_pair(system_factory, **kwargs):
    compiled = verify(system_factory(), **kwargs)
    objected = verify(system_factory(), kernel="object", **kwargs)
    assert compiled.kernel == "compiled" and objected.kernel == "object"
    assert compiled.states_explored == objected.states_explored
    assert compiled.transitions_explored == objected.transitions_explored
    assert compiled.ok == objected.ok
    assert compiled.error == objected.error
    assert compiled.deadlock == objected.deadlock
    assert compiled.trace == objected.trace
    return compiled


# Exact hardened fault-matrix pins: (states, transitions) per protocol and
# concurrency policy, measured with the default harden=True generation.  Any
# drift here means the hardening pass (or the search) changed behaviour.
DUPLICATION_MATRIX = {
    # name: {"stalling": (states, transitions), "nonstalling": ...}
    "MSI": {"stalling": (476, 840), "nonstalling": (508, 894)},
    "MESI": {"stalling": (515, 878), "nonstalling": (547, 932)},
    "MOSI": {"stalling": (442, 778), "nonstalling": (488, 852)},
    "MSI-Upgrade": {"stalling": (476, 840), "nonstalling": (508, 894)},
    "MSI-Unordered": {"stalling": (525, 936), "nonstalling": (923, 1708)},
    "TSO-CC": {"stalling": (380, 686), "nonstalling": (390, 700)},
}

REORDER_MATRIX = {
    "MSI": {"stalling": (2682, 4922), "nonstalling": (3336, 5890)},
    "MESI": {"stalling": (2758, 5072), "nonstalling": (3691, 6470)},
    "MOSI": {"stalling": (2430, 4106), "nonstalling": (2815, 4582)},
    "MSI-Upgrade": {"stalling": (2762, 5082), "nonstalling": (3396, 6006)},
    "TSO-CC": {"stalling": (1292, 2250), "nonstalling": (1414, 2364)},
}


@pytest.mark.parametrize("policy", ["stalling", "nonstalling"])
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_duplication_passes_every_hardened_protocol_on_both_kernels(
    all_generated, name, policy
):
    """A duplicated message is absorbed by the generated idempotence
    reactions: the caches report served-elsewhere forwards back to the
    directory, the directory recovers missed handoffs from (provably
    current) memory, and duplicate responses in stable states are silently
    consumed.  Both kernels agree on the full passing search, with zero
    decodes on the compiled reduced path and the exact pinned layout."""
    result = _search_pair(
        lambda: System(all_generated[(name, policy)], num_caches=2,
                       workload=_workload(name, 1),
                       faults=FaultModel(duplicate=True)),
        invariants=_plain_invariants(name),
    )
    assert result.ok, f"{name}/{policy}: {result.summary}"
    assert result.stats["decode_count"] == 0
    assert (result.states_explored, result.transitions_explored) == (
        DUPLICATION_MATRIX[name][policy]
    )


@pytest.mark.parametrize("policy", ["stalling", "nonstalling"])
@pytest.mark.parametrize("name", ORDERED_PROTOCOLS)
def test_reorder_passes_every_hardened_ordered_protocol_identically(
    all_generated, name, policy
):
    """Re-queue semantics replace head-of-line blocking: a stalled ordered
    channel head rotates behind deliverable messages, so one adjacent swap
    (e.g. a forward past the response it chases) no longer deadlocks the
    stalling configurations.  Bit-identical on both kernels, zero decodes,
    exact pinned layout."""
    result = _search_pair(
        lambda: System(all_generated[(name, policy)], num_caches=2,
                       workload=Workload(max_accesses_per_cache=2),
                       faults=FaultModel(reorder=True)),
        invariants=_plain_invariants(name),
    )
    assert result.ok, f"{name}/{policy}: {result.summary}"
    assert not result.deadlock
    assert result.stats["decode_count"] == 0
    assert (result.states_explored, result.transitions_explored) == (
        REORDER_MATRIX[name][policy]
    )


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_two_address_search_parity(all_generated, name):
    result = _search_pair(
        lambda: System(all_generated[(name, "nonstalling")], num_caches=2,
                       workload=_workload(name, 1), num_addresses=2),
        invariants=_plain_invariants(name),
    )
    assert result.ok
    assert result.stats["decode_count"] == 0


def test_single_address_fault_free_layout_is_unchanged(msi_nonstalling):
    """The multi-plane/fault-lane codec extensions must be invisible for the
    historical configuration: same encoding, same pinned search."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    codec = system.codec()
    assert codec.fault_offset is None
    assert codec.net_offset == codec.version_offset + 1
    result = verify(system)
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)


# ---------------------------------------------------------------------------
# The litmus matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", LITMUS_TESTS, ids=lambda b: b().name)
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_litmus_passes_fault_free_on_every_protocol(all_generated, name, build):
    """SB, MP and coRR hold on every bundled protocol under fault-free
    delivery, on both kernels, with bit-identical searches and zero decodes
    on the compiled path."""
    test = build()
    invariants = _litmus_invariants(name, test)
    result = _search_pair(
        lambda: System(all_generated[(name, "stalling")], num_caches=2,
                       workload=test.workload),
        invariants=invariants,
    )
    assert result.ok, f"{name}/{test.name}: {result.summary}"
    assert result.complete_states > 0
    assert result.stats["decode_count"] == 0


LITMUS_DUPLICATION_PINS = {
    # Single-transaction-per-location litmus programs pass under duplication
    # on hardened MSI; coRR is the documented residual (below).
    "litmus-SB": (1524, 3364),
    "litmus-MP": (1778, 4083),
}


@pytest.mark.parametrize("litmus", sorted(LITMUS_DUPLICATION_PINS))
def test_litmus_passes_under_duplication_on_hardened_msi(
    all_generated, litmus
):
    """Litmus runs under fault injection compose with the hardening pass:
    the store-buffering and message-passing outcomes hold with a duplicated
    message in flight, identically on both kernels."""
    test = next(b() for b in LITMUS_TESTS if b().name == litmus)
    result = _search_pair(
        lambda: System(all_generated[("MSI", "stalling")], num_caches=2,
                       workload=test.workload,
                       faults=FaultModel(duplicate=True)),
        invariants=test.invariants(),
    )
    assert result.ok, f"{litmus}: {result.summary}"
    assert (result.states_explored, result.transitions_explored) == (
        LITMUS_DUPLICATION_PINS[litmus]
    )


class TestThreeCacheResiduals:
    """The hardened guarantee is the measured 2-cache PR 6 matrix.  At
    three caches two residual classes remain; pin them so a future fix
    flips these knowingly (ROADMAP direction 4)."""

    def test_duplicated_inv_ack_double_count(self, all_generated):
        """A duplicated ``Inv_Ack`` is counted twice by the ack *counter*
        (per-sender bookkeeping would be needed to dedupe), so the storer
        reaches M while an un-invalidated sharer still reads."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=1),
                   faults=FaultModel(duplicate=True)),
        )
        assert not result.ok and not result.deadlock
        assert result.violation is not None and "SWMR" in str(result.violation)
        assert any(line.startswith("duplicate Inv_Ack")
                   for line in result.trace)

    def test_reordered_multi_access_miss_recovery_deadlock(
        self, all_generated
    ):
        """With replacements in play (2 accesses), a reordered ``Put_Ack``
        past a forward leaves the directory in a *later* transaction's
        transient when the earlier transaction's miss report arrives; the
        recovery absorbs it without re-serving the requestor and the
        search deadlocks."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=2),
                   faults=FaultModel(reorder=True)),
        )
        assert not result.ok and result.deadlock

    def test_single_access_three_cache_reorder_passes(self, all_generated):
        """Without replacements the reorder hardening does extend to three
        caches -- the nightly throughput smoke relies on this config."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=1),
                   faults=FaultModel(reorder=True)),
        )
        assert result.ok, result.summary


def test_corr_duplication_aliasing_is_the_documented_residual(all_generated):
    """coRR issues two loads from the same cache; a duplicated
    owner-to-requestor ``Data`` from the first load can satisfy the second
    load's transient after an intervening invalidation (the messages are
    indistinguishable without transaction IDs, which generation-level
    hardening deliberately does not add).  Pin the residual so a future
    tagging scheme flips this test knowingly."""
    test = next(b() for b in LITMUS_TESTS if b().name == "litmus-coRR")
    result = verify(
        System(all_generated[("MSI", "stalling")], num_caches=2,
               workload=test.workload, faults=FaultModel(duplicate=True)),
        invariants=test.invariants(), kernel="object",
    )
    assert not result.ok
    assert result.violation is not None
    assert "SWMR" in str(result.violation)
    assert any(line.startswith("duplicate Data") for line in result.trace)


def test_litmus_sb_passes_under_reorder_on_hardened_msi(all_generated):
    from repro.verification import store_buffering

    test = store_buffering()
    result = _search_pair(
        lambda: System(all_generated[("MSI", "stalling")], num_caches=2,
                       workload=test.workload,
                       faults=FaultModel(reorder=True)),
        invariants=test.invariants(),
    )
    assert result.ok and not result.deadlock
    assert (result.states_explored, result.transitions_explored) == (211, 348)


# ---------------------------------------------------------------------------
# Litmus mutants: each test catches an injected consistency bug
# ---------------------------------------------------------------------------


class StaleDataSystem(System):
    """Injected consistency bug: deliveries to caches on selected address
    planes carry stale data -- any payload version ``>= min_version`` is
    replaced with the initial value (version 0) just before delivery.

    A ``System`` subclass, so searches run on the object backend (the
    compiled kernel's fallback contract); the corruption is a deterministic
    function of the delivered message, keeping the state space well-defined.
    """

    def __init__(self, *args, corrupt_addrs, min_version, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt_addrs = corrupt_addrs
        self.min_version = min_version

    def apply(self, state, event):
        if (
            isinstance(event, DeliverMessage)
            and event.addr in self.corrupt_addrs
            and event.message.dst >= 0
            and event.message.data is not None
            and event.message.data >= self.min_version
        ):
            from dataclasses import replace as _replace

            stale = _replace(event.message, data=0)
            network = self._plane_network(state, event.addr)
            network = _replace_message(network, event.message, stale)
            state = self._with_plane(state, event.addr, network=network)
            event = DeliverMessage(message=stale, addr=event.addr)
        return super().apply(state, event)


def _replace_message(network, old, new):
    """Swap one in-flight message in place (same channel position)."""
    if isinstance(network, OrderedNetwork):
        channels = []
        replaced = False
        for key, msgs in network.channels:
            if not replaced and old in msgs:
                i = msgs.index(old)
                msgs = msgs[:i] + (new,) + msgs[i + 1:]
                replaced = True
            channels.append((key, msgs))
        assert replaced
        return OrderedNetwork(channels=tuple(channels))
    msgs = list(network.messages)
    msgs[msgs.index(old)] = new
    return UnorderedNetwork(messages=tuple(sorted(msgs, key=message_sort_key)))


class TestLitmusMutantsCatchInjectedBugs:
    def test_sb_catches_stale_reads_of_both_locations(self, msi_stalling):
        from repro.verification import store_buffering

        test = store_buffering()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0, 1}, min_version=1)
        result = verify(system, invariants=test.invariants())
        assert not result.ok
        assert result.violation is not None
        assert result.violation.name == "litmus-SB"
        assert result.kernel == "object"  # mutants take the fallback path

    def test_mp_catches_stale_data_behind_a_fresh_flag(self, msi_stalling):
        from repro.verification import message_passing

        test = message_passing()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0}, min_version=1)
        result = verify(system, invariants=test.invariants())
        assert not result.ok
        assert result.violation is not None
        assert result.violation.name == "litmus-MP"

    def test_corr_catches_backwards_reads_via_the_substrate(self, msi_stalling):
        from repro.verification import coherent_read_read

        test = coherent_read_read()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0}, min_version=2)
        result = verify(system, invariants=test.invariants())
        assert not result.ok
        assert result.error is not None and "went backwards" in result.error

    def test_the_unmutated_substrate_passes_all_three(self, msi_stalling):
        for build in LITMUS_TESTS:
            test = build()
            system = System(msi_stalling, num_caches=2, workload=test.workload)
            result = verify(system, invariants=test.invariants())
            assert result.ok, f"{test.name}: {result.summary}"


# ---------------------------------------------------------------------------
# Symmetry: faults compose, litmus and multi-address gate off
# ---------------------------------------------------------------------------


class TestSymmetryComposition:
    def test_faulted_search_reduces_with_identical_verdict(self, msi_nonstalling):
        make = lambda: System(msi_nonstalling, num_caches=3,
                              workload=Workload(max_accesses_per_cache=1),
                              faults=FaultModel(reorder=True))
        full = verify(make())
        reduced = verify(make(), symmetry=True)
        assert full.ok and reduced.ok
        assert reduced.states_explored < full.states_explored
        assert reduced.stats["decode_count"] == 0

    def test_reduced_fault_search_parity_across_kernels(self, msi_nonstalling):
        make = lambda: System(msi_nonstalling, num_caches=3,
                              workload=Workload(max_accesses_per_cache=1),
                              faults=FaultModel(duplicate=True))
        compiled = verify(make(), symmetry=True)
        objected = verify(make(), symmetry=True, kernel="object")
        assert compiled.states_explored == objected.states_explored
        assert compiled.transitions_explored == objected.transitions_explored
        assert compiled.ok == objected.ok
        assert compiled.trace == objected.trace

    def test_multi_address_symmetry_is_rejected(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2)
        assert not system.supports_symmetry
        with pytest.raises(ValueError, match="symmetry"):
            verify(system, symmetry=True)

    def test_litmus_symmetry_is_rejected(self, msi_nonstalling):
        from repro.verification import store_buffering

        test = store_buffering()
        system = System(msi_nonstalling, num_caches=2, workload=test.workload)
        assert not system.supports_symmetry
        with pytest.raises(ValueError, match="symmetry"):
            verify(system, symmetry=True, invariants=test.invariants())

    def test_faults_alone_keep_symmetry_support(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        faults=FaultModel(duplicate=True))
        assert system.supports_symmetry


class TestSymmetryRejectedAtConstruction:
    """Declaring symmetry intent on the ``System`` itself fails fast: the
    unsupported combinations raise at construction with a message naming
    the combination, instead of surfacing mid-verify."""

    def test_multi_address_symmetry_raises_at_construction(
        self, msi_nonstalling
    ):
        with pytest.raises(ValueError, match="num_addresses=2"):
            System(msi_nonstalling, num_caches=2,
                   workload=Workload(max_accesses_per_cache=1),
                   num_addresses=2, symmetry=True)

    def test_litmus_symmetry_raises_at_construction(self, msi_nonstalling):
        from repro.verification import store_buffering

        test = store_buffering()
        with pytest.raises(ValueError, match="litmus"):
            System(msi_nonstalling, num_caches=2, workload=test.workload,
                   symmetry=True)

    def test_verify_error_names_the_combination(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2)
        with pytest.raises(ValueError, match="num_addresses=2"):
            verify(system, symmetry=True)

    def test_constructed_symmetry_intent_flows_into_verify(
        self, msi_nonstalling
    ):
        system = System(msi_nonstalling, num_caches=3,
                        workload=Workload(max_accesses_per_cache=1),
                        symmetry=True)
        result = verify(system)  # no explicit symmetry argument
        assert result.ok and result.symmetry_reduced

    def test_random_walk_coverage_rejects_unsupported_symmetry(
        self, msi_nonstalling
    ):
        from repro.verification import random_walk

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2)
        with pytest.raises(ValueError, match="symmetry"):
            random_walk(system, runs=1, max_steps=5, track_coverage=True)


# ---------------------------------------------------------------------------
# Partial aborts record their stats (satellite fix pin)
# ---------------------------------------------------------------------------


class TestPartialAbortStats:
    def test_budgeted_abort_still_reports_the_time_split(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, max_states=200)
        assert result.partial and result.ok
        assert result.states_explored == 200
        stats = result.stats
        assert stats["kernel"] == "compiled"
        assert stats["decode_count"] == 0
        assert isinstance(stats["canonicalization_seconds"], float)
        assert isinstance(stats["expansion_seconds"], float)
        assert stats["expansion_seconds"] >= 0.0

    # Without a checkpoint, a budgeted BFS clips its last level to the
    # remaining budget: exactly ``max_states`` states, with the transitions
    # and completed runs of a per-state BFS cut at the same point (the
    # counts are pinned from the per-state serial BFS the level driver
    # replaced; 777 cuts mid-level).
    @pytest.mark.parametrize("mode, budget, transitions, complete", [
        (dict(), 200, 485, 0),
        (dict(), 777, 1703, 31),
        (dict(symmetry=True), 777, 1473, 53),
        (dict(kernel="object"), 777, 1703, 31),
        (dict(kernel="object", symmetry=True), 777, 1473, 53),
    ])
    def test_budget_cut_without_checkpoint_is_exact(
            self, msi_nonstalling, mode, budget, transitions, complete):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, max_states=budget, **mode)
        assert result.partial and result.ok
        assert (result.states_explored, result.transitions_explored,
                result.complete_states) == (budget, transitions, complete)

    def test_budgeted_abort_on_faulted_object_search(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2),
                        faults=FaultModel(duplicate=True, reorder=True,
                                          budget=2))
        result = verify(system, max_states=50, kernel="object")
        assert result.states_explored == 50
        stats = result.stats
        assert stats["kernel"] == "object"
        assert stats["strategy"] == "bfs"
        assert stats["expansion_seconds"] is not None
