"""Constructive calculus of countable ordinal names.

Names are built from zero by successor families and suprema; the inductively
defined comparisons are only semi-decidable, so the engine answers in three
values under explicit fuel, certificates discharge what bounded search
cannot, and a two-rule sequent calculus covers the judgments with finite
derivations but no bounded decision procedure.
"""

from .arith import LinearIndexOrder, acko, add, eps0, mul, pow, seq_sum
from .checker import (Certificate, Exhaustive, Judgment, KernelError,
                      SpotCheck, VerifyReport, serialize, verify)
from .compare import (DEFAULT_FUEL, EngineError, Fuel, Ordering, TriBool,
                      clear_memo, cmp_finitary, eq, finitary_fuel, le, lt,
                      memo_stats)
from .expr import (ExprError, format_expr, lower, parse_expr, parse_name,
                   parse_sequent)
from .kernel import CertSearchError, eq_certs, le_cert, lt_cert
from .laws import LAWS, run_laws
from .mlseq import (Atom, MlCertificate, ml_cert_exa123, ml_derivable,
                    ml_verify)
from .names import (BitSeq, Family, Fin, IllFoundedError, NAT, OrdName, ZERO,
                    eps_llpo, eps_lpo, filtering, fold, format_name, mk_node,
                    mk_zero, omega, sup_decomposition, sup_family, sup_finite,
                    subordinals, suc, suc_list, und, und_value)
from .oracle import GenParams, gen_finitary, gen_name, naive_le, naive_lt, val
from .trees import GUARD_EXHAUSTED, bar_probe, member, mu, node_count

__version__ = "0.1.0"

__all__ = [
    "Atom", "BitSeq", "Certificate", "CertSearchError", "DEFAULT_FUEL",
    "EngineError", "Exhaustive", "ExprError", "Family", "Fin", "Fuel",
    "GUARD_EXHAUSTED", "GenParams", "IllFoundedError", "Judgment",
    "KernelError", "LAWS", "LinearIndexOrder", "MlCertificate", "NAT",
    "OrdName",
    "Ordering", "SpotCheck", "TriBool", "VerifyReport", "ZERO", "acko",
    "add", "bar_probe", "clear_memo", "cmp_finitary", "eps0", "eps_llpo",
    "eps_lpo", "eq", "eq_certs", "filtering", "finitary_fuel", "fold",
    "format_expr", "format_name", "gen_finitary", "gen_name", "le",
    "le_cert", "lower", "lt", "lt_cert", "member", "memo_stats", "mk_node",
    "mk_zero", "ml_cert_exa123", "ml_derivable", "ml_verify", "mu", "mul",
    "naive_le", "naive_lt", "node_count", "omega", "parse_expr",
    "parse_name", "parse_sequent", "pow", "run_laws", "seq_sum", "serialize",
    "sup_decomposition", "sup_family", "sup_finite", "subordinals", "suc",
    "suc_list", "und", "und_value", "val", "verify",
]
