"""Setup shim.

The execution environment has no network access and no ``wheel`` package,
so PEP 660 editable installs (which shell out to ``bdist_wheel``) fail.
Keeping a classic ``setup.py`` lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` code path, which works offline.  The
package metadata lives here, in the ``setup()`` call below.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Way to Automatically Enrich Biomedical "
        "Ontologies' (EDBT 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
