"""The error every cost guard raises, which the CLI catches before any engine loads.

Every cost guard sits beside the engine it sizes: the flag ceiling in
`theta`, the work model of the Kostka engine, which `springer --d`
shares, in `partitions`, the character-table rank in `hyperoctahedral`,
and the cost model of the dense projectors in `tensor`.
"""


class CostBoundExceeded(RuntimeError):
    """Raised when a requested computation exceeds a configured size bound."""
