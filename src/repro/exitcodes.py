"""Failure kinds and process exit codes shared by every PRIX front end.

One classifier, two surfaces: :func:`classify` names the *kind* of a
library exception and :data:`EXIT_CODES` its exit status.  ``prix``
(the CLI, :mod:`repro.cli`) returns that status, and ``prix serve``
embeds the same number as ``exit_code`` in its typed JSON error
responses (:mod:`repro.serve.protocol`) -- so a script gets the
identical failure taxonomy whether it shells out or talks HTTP.
Scripts and the CI smoke steps branch on these values; they are part of
the public contract and must not be renumbered.
"""

from repro.prix.budget import BudgetExceededError
from repro.query.twig import UnsupportedTwigError
from repro.query.xpath import XPathSyntaxError
from repro.storage.errors import (CorruptionError, ReadOnlyBackendError,
                                  WalError)
from repro.xmlkit.errors import XMLSyntaxError

#: Generic failure (I/O errors, storage errors, exhausted filter-phase
#: budgets, ...).
EXIT_ERROR = 1
#: Usage error: bad arguments, unparsable query, missing or malformed
#: input file.
EXIT_USAGE = 2
#: Corruption: checksum failure, unrecoverable WAL, failed recovery.
EXIT_CORRUPTION = 3
#: Timeout: a request (or its client-side deadline) ran out of time
#: before the work finished -- retryable, unlike a usage error.
EXIT_TIMEOUT = 4

#: Failure kind -> exit code, the closed vocabulary of
#: ``docs/SERVING.md``; the kinds :func:`classify` never returns are
#: raised by name in the serving tier.
EXIT_CODES = {
    "bad-request": EXIT_USAGE,
    "not-found": EXIT_USAGE,
    "method-not-allowed": EXIT_USAGE,
    "read-only": EXIT_ERROR,
    "request-timeout": EXIT_TIMEOUT,
    "budget-exhausted": EXIT_ERROR,
    "over-capacity": EXIT_ERROR,
    "draining": EXIT_ERROR,
    "corruption": EXIT_CORRUPTION,
    "internal": EXIT_ERROR,
}

#: (exception types, kind), first match wins, anything else is
#: ``internal`` -- including the generic ``OSError`` / ``ValueError``
#: parents of ``TimeoutError`` / ``XPathSyntaxError``,
#: ``UnsupportedTwigError`` and ``XMLSyntaxError``.  Registry,
#: variant and document lookups raise ``KeyError``.
_LADDER = (
    (BudgetExceededError, "budget-exhausted"),
    (ReadOnlyBackendError, "read-only"),
    ((CorruptionError, WalError), "corruption"),
    (TimeoutError, "request-timeout"),
    ((FileNotFoundError, KeyError), "not-found"),
    ((XPathSyntaxError, UnsupportedTwigError, XMLSyntaxError,
      FileExistsError), "bad-request"),
)


def classify(error):
    """The failure kind (a key of :data:`EXIT_CODES`) of ``error``."""
    for types, kind in _LADDER:
        if isinstance(error, types):
            return kind
    return "internal"


def describe(error):
    """The one-line message both front ends show for ``error``."""
    if isinstance(error, FileNotFoundError):
        return f"missing file: {error.filename or error}"
    if isinstance(error, KeyError):
        return str(error).strip("'\"")  # KeyError reprs its argument
    if isinstance(error, TimeoutError):
        return str(error) or "timed out"  # bare socket timeouts are empty
    return str(error)
