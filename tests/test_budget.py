"""Every term-budget charge, read through the one patch point qperm.config.DEFAULT_CONFIG.

Each case is (label, need, message, call): with the budget at need - 1 the call
raises BudgetError with exactly that message, and at need it runs.  The inputs
are built at the default budget, before the budget is replaced.
"""

import numpy as np
import pytest

from qperm.cohomology import cocycle_space, gaussian_subspace
from qperm.errors import BudgetError
from qperm.magic import MagicUnitary, fourier, from_hadamard, from_permutation
from qperm.perms import parse_cycles
from qperm.schurmann import SchurmannTriple, _commutator_norm, _kraus, random_cocycle
from qperm.semigroup import _block_record, _expm_action, conv_exp, fundamental_semigroup
from qperm.stochsim import PermProcessSpec, simulate_marginals
from qperm.words import Word, coproduct_terms, parse_word


def _cases():
    f24 = from_hadamard(fourier(24))
    rng = np.random.default_rng(5)
    not_magic = MagicUnitary(rng.normal(size=(8, 8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8, 8)))
    f4 = from_hadamard(fourier(4))
    t4 = SchurmannTriple(f4, random_cocycle(f4, np.random.default_rng(3)))
    kraus = len(_kraus(t4.pi.reshape(16, 6, 6)))
    two = _block_record(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    spec = PermProcessSpec((2, 3, 4, 1, 6, 5), [1.0, 0.7])
    ptrs = PermProcessSpec((2, 3, 4, 1, 6, 5), [12.0, 0.7])
    entries = "complex entries"
    return [
        ("perms._charged_size", 6, "the permutation needs 6 points",
         lambda: parse_cycles("(1 6)")),
        ("magic.from_permutation", 144, f"the permutation representation needs 144 {entries}",
         lambda: from_permutation((2, 1), 6)),
        ("magic.fourier", 2500, f"the Fourier matrix needs 2500 {entries}",
         lambda: fourier(50)),
        ("magic.from_hadamard", 1512, f"the Hadamard representation needs 1512 {entries}",
         lambda: from_hadamard(fourier(6))),
        ("cohomology.cocycle_space", 3 * 576 ** 2,
         f"the cocycle space needs 995328 {entries}",
         lambda: cocycle_space(f24)),
        ("cohomology fallback", 40960,
         f"the compressed cocycle constraints needs 40960 {entries}",
         lambda: cocycle_space(not_magic)),
        ("cohomology.gaussian_subspace", 11776,
         f"the Gaussian constraints needs 11776 {entries}",
         lambda: gaussian_subspace(f4)),
        ("schurmann._moments", 36 * kraus, f"a moment level needs {36 * kraus} {entries}",
         lambda: _commutator_norm(t4, 1)),
        ("semigroup._expm_action", 5610, "the exponential action needs 5610 matrix products",
         lambda: _expm_action(two, 1000.0, np.eye(2))),
        ("semigroup._block", 32400, f"the 4-letter block needs 32400 {entries}",
         lambda: conv_exp(t4, 0.5, parse_word("p(1,2) p(2,3) p(3,4) p(4,1)", 4))),
        ("semigroup._block, letters", 16, f"the 1-letter block needs 16 {entries}",
         lambda: fundamental_semigroup(t4, 0.01)),
        ("words.coproduct_terms", 256, "coproduct expansion needs 256 raw terms",
         lambda: coproduct_terms(Word([(1, 1)] * 4, 4), 2)),
        ("stochsim, multinomial blocks", 20, "Monte-Carlo sampling needs 20 draws",
         lambda: simulate_marginals(spec, 1.0, 1000, 7, block_size=100)),
        ("stochsim, Poisson counts", 1010, "Monte-Carlo sampling needs 1010 draws",
         lambda: simulate_marginals(ptrs, 1.0, 1000, 7, block_size=100)),
    ]


CASES = _cases()


@pytest.mark.parametrize("need,message,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_charge_raises_below_its_need_and_runs_at_it(budget, need, message, call):
    budget(need - 1)
    with pytest.raises(BudgetError) as exc:
        call()
    assert str(exc.value) == f"{message}, over the term budget {need - 1}"
    budget(need)
    call()
