"""Exception hierarchy for the NoSE reproduction.

All errors raised by this package derive from :class:`NoseError`, so client
code can catch a single exception type at the API boundary while still
being able to distinguish failure modes.
"""


class NoseError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(NoseError):
    """An entity graph is malformed or referenced inconsistently.

    Raised, for example, when adding a duplicate entity, traversing a
    relationship that does not exist, or building a key path whose edges
    are not connected.
    """


class ParseError(NoseError):
    """A workload statement could not be parsed or resolved.

    Carries the offending statement text (when available) so callers can
    report the failing input.  When ``offset`` (a character position into
    ``text``) is given, the error message pinpoints the failure with its
    line and column and a caret-annotated snippet of the offending line::

        expected 'FROM', found 'WHERE' at line 1, column 27
            SELECT Hotel.HotelName WHERE ...
                                   ^
    """

    def __init__(self, message, text=None, offset=None):
        #: the message without its position or statement text
        self.reason = message
        self.text = text
        self.offset = offset
        self.line = None
        self.column = None
        if text is not None and offset is not None:
            offset = max(0, min(offset, len(text)))
            consumed = text[:offset]
            self.line = consumed.count("\n") + 1
            start = consumed.rfind("\n") + 1
            self.column = offset - start + 1
            end = text.find("\n", start)
            snippet = text[start:] if end < 0 else text[start:end]
            caret = " " * (self.column - 1) + "^"
            message = (f"{message} at line {self.line}, "
                       f"column {self.column}:\n"
                       f"    {snippet}\n    {caret}")
        elif text is not None:
            message = f"{message} (in statement: {text!r})"
        super().__init__(message)


class WorkloadError(ParseError):
    """A workload was assembled inconsistently.

    Raised for validation failures that involve no parsing at all —
    duplicate statement labels, non-positive weights, removing a
    statement that is not registered.  Subclasses :class:`ParseError`
    so existing callers catching that type keep working.
    """


class PlanningError(NoseError):
    """No valid implementation plan exists for a statement.

    This signals that the candidate pool cannot answer a query — e.g. when
    planning against a fixed, user-supplied schema that does not cover the
    workload.
    """


class OptimizationError(NoseError):
    """The schema optimization problem is infeasible or the solver failed."""


class ExecutionError(NoseError):
    """A plan could not be executed against the backend record store."""


class TruncationWarning(UserWarning):
    """A plan space hit the planner's ``max_plans`` cap.

    The enumeration stopped with branches left unexplored, so the plan
    space may be incomplete and the recommendation is optimal only over
    the plans that were kept.  Raise ``max_plans`` to explore further.
    """
