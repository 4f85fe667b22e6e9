"""Access to bundled data files (golden reports, the degree-8 identity, sample algebras)."""

from importlib import resources


def data_text(name: str) -> str:
    """Contents of a bundled data file, e.g. 'identity_d8.txt' or
    'algebras/cross_product.json'."""
    root = resources.files(__package__) / "data"
    return (root / name).read_text(encoding="utf-8")
