import random

import pytest

from relpat.machines import (
    CaConfiguration,
    EncodingParams,
    TapeUtm,
    TwoCounterAutomaton,
    UtmConfiguration,
    ca_decode,
    ca_encode,
    ca_encode_config,
    ca_find_accepting_run,
    ca_step,
    ca_validate,
    parse_automaton,
    print_automaton,
    utm_decode_computation,
    utm_delta,
    utm_encode_computation,
    utm_encode_config,
    utm_is_halting,
    utm_step,
    utm_validate,
)
from relpat.selfcheck import halting_computations

from helpers import no_run_automaton, tiny_automata

AUTOMATA = tiny_automata()


# -- counter automata ---------------------------------------------------------


def test_step_at_zero_uses_zero_flags():
    automaton = TwoCounterAutomaton(
        2,
        frozenset({1}),
        {
            (0, 0, 0): frozenset({(1, 1, 0)}),
            (0, 1, 0): frozenset({(1, -1, 0)}),
        },
    )
    # only the (0,0)-flag transition applies at counters (0,0)
    assert ca_step(automaton, CaConfiguration(0, 0, 0)) == {CaConfiguration(1, 1, 0)}
    assert ca_step(automaton, CaConfiguration(0, 3, 0)) == {CaConfiguration(1, 2, 0)}


def test_step_empty_delta():
    automaton = TwoCounterAutomaton(1, frozenset({0}), {})
    assert ca_step(automaton, CaConfiguration(0, 0, 0)) == set()


def test_decrement_from_zero_rejected_on_construction():
    with pytest.raises(ValueError, match="decrements"):
        TwoCounterAutomaton(2, frozenset({1}), {(0, 0, 0): frozenset({(1, -1, 0)})})


def test_single_increment_successor():
    automaton = AUTOMATA["increment-then-accept"]
    assert ca_step(automaton, CaConfiguration(0, 0, 0)) == {CaConfiguration(0, 1, 0)}


def test_run_length_one_when_start_accepting():
    run = ca_find_accepting_run(AUTOMATA["accept-immediately"], 5)
    assert run == [CaConfiguration(0, 0, 0)]


def test_run_absent_when_unreachable():
    assert ca_find_accepting_run(no_run_automaton(), 12) is None


def test_three_step_run():
    run = ca_find_accepting_run(AUTOMATA["increment-then-accept"], 6)
    assert run == [
        CaConfiguration(0, 0, 0),
        CaConfiguration(0, 1, 0),
        CaConfiguration(1, 1, 0),
    ]


def test_encode_single_config():
    assert ca_encode([CaConfiguration(0, 0, 0)]) == "##0#0#0##"


def test_encode_block_values():
    assert ca_encode_config(CaConfiguration(1, 2, 0)) == "00#000#0"


def test_encode_two_blocks():
    word = ca_encode([CaConfiguration(0, 0, 0), CaConfiguration(1, 0, 0)])
    assert word == "##0#0#0##00#0#0##"


def test_encode_custom_params():
    params = EncodingParams(x=2, c1=1, c2=3, y2=2)
    assert ca_encode_config(CaConfiguration(1, 2, 1), params) == "000#00000#00000"


def test_decode_inverts_encode():
    rng = random.Random(31)
    for params in (EncodingParams(), EncodingParams(2, 1, 2, 3)):
        for _ in range(50):
            run = [
                CaConfiguration(rng.randint(0, 2), rng.randint(0, 5), rng.randint(0, 5))
                for _ in range(rng.randint(1, 5))
            ]
            automaton = TwoCounterAutomaton(3, frozenset({0}), {})
            assert ca_decode(ca_encode(run, params), automaton, params) == run


def test_validate_round_trip_all_tiny_automata():
    for name, automaton in AUTOMATA.items():
        run = ca_find_accepting_run(automaton, 8)
        assert run is not None, name
        assert ca_validate(ca_encode(run), automaton), name


def test_validate_rejects_non_accepting_prefix():
    automaton = AUTOMATA["increment-then-accept"]
    run = ca_find_accepting_run(automaton, 6)
    assert not ca_validate(ca_encode(run[:-1]), automaton)


def test_validate_rejects_wrong_start_state():
    automaton = AUTOMATA["one-step"]
    assert not ca_validate("##0#0#0##", automaton)  # q0 not accepting
    assert not ca_validate("##00#0#0##", automaton)  # starts at q1


def test_validate_rejects_unframed():
    automaton = AUTOMATA["accept-immediately"]
    assert not ca_validate("0#0#0", automaton)


def test_validate_rejects_corruption_corpus():
    from helpers import ca_corruptions

    automaton = AUTOMATA["increment-then-accept"]
    run = ca_find_accepting_run(automaton, 6)
    word = ca_encode(run)
    corpus = ca_corruptions(word, automaton)
    assert len(corpus) >= 20
    for candidate in corpus:
        assert not ca_validate(candidate, automaton), candidate


def test_automaton_text_round_trip():
    for automaton in AUTOMATA.values():
        assert parse_automaton(print_automaton(automaton)) == automaton


def test_parse_automaton_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_automaton("states: 2\naccept: q1\nq0 2 0 -> q1 0 0\n")
    with pytest.raises(ValueError):
        parse_automaton("accept: q0\n")


# -- universal Turing machine -------------------------------------------------


def test_delta_spot_values():
    assert utm_delta(0, 1) == (0, "R", 2)
    assert utm_delta(1, 10) is None
    assert utm_delta(0, 15) == (0, "R", 14)
    assert utm_delta(1, 5) == (1, "L", 4)
    assert utm_delta(0, 13) == (0, "L", 2)


def test_delta_is_total_with_single_halt():
    halts = [key for key in ((s, q) for s in (0, 1) for q in range(1, 16)) if utm_delta(*key) is None]
    assert halts == [(1, 10)]


def test_halting_configuration():
    assert utm_step(UtmConfiguration(10, 1, 0)) is None
    assert utm_is_halting(UtmConfiguration(10, 3, 7))
    assert not utm_is_halting(UtmConfiguration(10, 2, 7))  # reads 0


def test_step_on_blank_tape():
    # q1 reading 0 writes 0 and moves right into q2; both sides stay blank.
    assert utm_step(UtmConfiguration(1, 0, 0)) == UtmConfiguration(2, 0, 0)


def test_step_arithmetic_against_tape_simulator():
    rng = random.Random(17)
    for _ in range(1200):
        config = UtmConfiguration(
            rng.randint(1, 15), rng.randint(0, 2**10 - 1), rng.randint(0, 2**10 - 1)
        )
        tape = TapeUtm.from_config(config)
        assert tape.to_config() == config
        stepped = utm_step(config)
        if stepped is None:
            assert tape.step() is False
        else:
            assert tape.step() is True
            assert tape.to_config() == stepped


def test_encode_blank_config():
    assert utm_encode_config(UtmConfiguration(1, 0, 0)) == "0" * 7 + "#" + "0" * 7 + "#" + "0" * 7


def test_encode_state_block_length():
    encoded = utm_encode_config(UtmConfiguration(15, 0, 0))
    assert encoded.rsplit("#", 1)[1] == "0" * 21


def test_encode_decode_round_trip():
    rng = random.Random(19)
    for _ in range(100):
        configs = [
            UtmConfiguration(rng.randint(1, 15), rng.randint(0, 64), rng.randint(0, 64))
            for _ in range(rng.randint(1, 6))
        ]
        assert utm_decode_computation(utm_encode_computation(configs)) == configs


def test_validate_accepts_simulated_halting_computations():
    trajectories = halting_computations(40, 10)
    assert len(trajectories) >= 20
    assert any(len(t) >= 5 for t in trajectories)
    for trajectory in trajectories[:200]:
        word = utm_encode_computation(trajectory)
        assert utm_validate(word, trajectory[0])


def test_validate_halting_successor_convention():
    # After a halting configuration, any configuration is a legal successor,
    # but the computation must still end in a halting configuration.
    halt = UtmConfiguration(10, 1, 0)
    other_halt = UtmConfiguration(10, 5, 2)
    nonhalt = UtmConfiguration(3, 0, 0)
    assert utm_validate(utm_encode_computation([halt, other_halt]), halt)
    assert not utm_validate(utm_encode_computation([halt, nonhalt]), halt)


def test_validate_rejects_utm_corruption_corpus():
    from helpers import utm_corruptions

    trajectory = max(halting_computations(40, 10), key=len)
    word = utm_encode_computation(trajectory)
    initial = trajectory[0]
    corpus = utm_corruptions(word, trajectory)
    assert len(corpus) >= 20
    for candidate in corpus:
        assert not utm_validate(candidate, initial), candidate


def test_validate_rejects_wrong_start():
    trajectory = halting_computations(40, 10)[0]
    word = utm_encode_computation(trajectory)
    wrong = UtmConfiguration(
        trajectory[0].state % 15 + 1, trajectory[0].left_code, trajectory[0].right_code
    )
    assert not utm_validate(word, wrong)
