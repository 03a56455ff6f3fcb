"""Exception hierarchy.

Every exception carries a stable ``code`` string so the CLI can emit
machine-readable error reports without string-matching messages.
Constructors take a single message argument; callers that need to
annotate context (fold index, row number) re-raise with an augmented
message.
"""


class EifkitError(Exception):
    """Base class for all package-specific failures."""

    code = "error"


# ---------------------------------------------------------------------------
# finite-support distributions


class InvalidDistribution(EifkitError):
    """Atom table violates a structural invariant (masses, duplicates, schema)."""

    code = "distribution/invalid"


class ZeroMassConditioning(EifkitError):
    """A conditional mean or propensity was requested at a zero-mass event."""

    code = "distribution/zero-mass-conditioning"


class PositivityViolation(EifkitError):
    """Some covariate value carries mass but has no untreated mass."""

    code = "distribution/positivity-violation"


class NoTreatedMass(EifkitError):
    """The treated arm has probability zero, so treated-conditional quantities are undefined."""

    code = "distribution/no-treated-mass"


class SupportViolation(EifkitError):
    """A mixture direction has atoms outside the base distribution's support."""

    code = "distribution/support-violation"


# ---------------------------------------------------------------------------
# nuisance learners


class InvalidLearnerSpec(EifkitError):
    """Learner specification fails validation or names an unusable kind."""

    code = "learner/invalid-spec"


class NoUntreatedRows(EifkitError):
    """Outcome regression needs at least one row with a = 0."""

    code = "learner/no-untreated-rows"


class SingularDesign(EifkitError):
    """Normal equations are singular even after ridge jitter."""

    code = "learner/singular-design"


class DegenerateTreatment(EifkitError):
    """All treatment values are identical; the propensity fit is vacuous."""

    code = "learner/degenerate-treatment"


class IrlsDivergence(EifkitError):
    """Reweighted least squares failed to meet the gradient tolerance."""

    code = "learner/irls-divergence"


# ---------------------------------------------------------------------------
# estimators


class NoTreatedRows(EifkitError):
    """The treated-mean estimand needs at least one row with a = 1."""

    code = "estimator/no-treated-rows"


class EmptyEif(EifkitError):
    """Variance requested from an empty influence-value vector."""

    code = "estimator/empty-eif"


# ---------------------------------------------------------------------------
# CSV ingestion


class MissingColumn(EifkitError):
    code = "ingest/missing-column"


class UnexpectedColumn(EifkitError):
    code = "ingest/unexpected-column"


class NonBinaryTreatment(EifkitError):
    code = "ingest/non-binary-treatment"


class UnparseableNumber(EifkitError):
    code = "ingest/unparseable-number"


class EmptyDataset(EifkitError):
    code = "ingest/empty-dataset"


# ---------------------------------------------------------------------------
# configuration


class ConfigError(EifkitError, ValueError):
    """Experiment configuration is structurally invalid.

    Also a ValueError, so library callers that validate arguments by
    catching ValueError keep working; the CLI maps it to exit code 2.
    """

    code = "config/invalid"
