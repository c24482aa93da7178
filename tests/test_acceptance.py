"""Acceptance suite: every headline property at its stated tolerance.

Each criterion prints one pass/fail line; all must pass. The checks
themselves live in fimod.selftest so the `fimod selftest` command and this
module exercise identical code.
"""
import resource
import sys
from types import SimpleNamespace

import pytest

from fimod.selftest import (CheckResult, EXCLUSION_NOTE, _peak_memory_bytes,
                            check_colimit_biconditional,
                            check_complex_identities,
                            check_free_slice_dimensions, check_h0_support,
                            check_inductive_description,
                            check_ordered_shift_free,
                            check_polynomial_dimensions,
                            check_saturation_chain, check_shift_splitting,
                            check_torsion_vanishing, run_selftest)

SEED = 0

CRITERIA = [
    ("1 free slice ranks", lambda: check_free_slice_dimensions()),
    ("2 shift decomposition and splitting", lambda: check_shift_splitting()),
    ("3 h0 of free modules", lambda: check_h0_support()),
    ("4 ordered shifts of free modules", lambda: check_ordered_shift_free(SEED)),
    ("5 complex identities", lambda: check_complex_identities(SEED)),
    ("6 homology-colimit biconditional",
     lambda: check_colimit_biconditional(SEED)),
    ("7 inductive description", lambda: check_inductive_description()),
    ("8 eventually polynomial dimensions",
     lambda: check_polynomial_dimensions()),
    ("9 torsion behavior", lambda: check_torsion_vanishing()),
    ("10 saturation", lambda: check_saturation_chain()),
]


@pytest.mark.parametrize("label,runner", CRITERIA,
                         ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_acceptance_criterion(label, runner):
    result = runner()
    print(f"criterion {label} [{result.tag}]: {result.status} - {result.detail}")
    assert result.ok, f"{label}: {result.detail}"


@pytest.fixture(scope="module")
def seed_results():
    """One run of the whole suite at SEED, shared by the tests below."""
    return run_selftest(SEED)


def test_acceptance_criterion_11_full_suite_envelope(seed_results, capsys):
    results = seed_results
    with capsys.disabled():
        print()
        for r in results:
            print(f"criterion [{r.tag}]: {r.status} - {r.detail}")
        print(f"exclusion: {EXCLUSION_NOTE}")
    assert all(isinstance(r, CheckResult) for r in results)
    envelope = [r for r in results if r.tag == "runtime-envelope"]
    assert envelope and envelope[0].ok, envelope
    failures = [r for r in results if not r.ok]
    assert not failures, failures


def test_selftest_passes_under_another_seed():
    # the property suite asserts theorems: any seed must pass
    results = run_selftest(seed=2026)
    failures = [r for r in results if not r.ok]
    assert not failures, failures


def test_selftest_covers_every_criterion(seed_results):
    tags = {r.tag for r in seed_results}
    assert tags == {
        "free-slice-dimensions", "shift-splitting", "h0-support",
        "ordered-shift-free", "complex-identities",
        "h0h1-colimit-biconditional", "inductive-description",
        "polynomial-dimensions", "torsion-vanishing", "saturation-chain",
        "runtime-envelope",
    }



@pytest.mark.parametrize("platform,ru_maxrss", [("linux", 30 * 1024),
                                                ("darwin", 30 * 1024 ** 2)])
def test_peak_memory_reads_ru_maxrss_in_the_platform_unit(
        monkeypatch, platform, ru_maxrss):
    """ru_maxrss counts KiB on Linux and bytes on macOS: a 30 MiB run must
    read as 30 MiB on both, not as 30 GiB (over the 2 GiB budget) on macOS."""
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=ru_maxrss))
    assert _peak_memory_bytes() == 30 * 1024 ** 2
