"""Exact arithmetic in the ring of arithmetical functions under
Dirichlet convolution, with ideal-family oracles and element
classification on truncated windows.

The exports load lazily (PEP 562): a public name imports its defining
module when it is first read, so a CLI command loads only the modules
it runs.  Nothing is cached here, so the package always hands out what
the defining module holds now, a monkeypatched function included.
"""

from importlib import import_module

# each public name, by the module that defines it
_EXPORTS = {name: module for module, names in {
    "primes": "Factorization factorize is_prime nth_prime",
    "ring": "EXACT FLOAT MEMBER NON_MEMBER UNDECIDED ArithFunc ModeMismatchError NonUnitError "
            "NotDivisibleWitness WindowError Witness ZeroFunctionError delta identity "
            "indicator_shift try_divide zeros",
    "ideals": "ChainLink ChainReport Decomposition IdealSpec NotInIdealError chain "
              "decompose_coprime_vanishing divisibility_depth member principal_quotient "
              "probe_prime window_prime",
    "structure": "ElementReport check_nonprime_norm_product classify essential_witness "
                 "units_group_probe",
    "zoo": "FUNCTION_TAGS generate is_additive is_completely_additive",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
