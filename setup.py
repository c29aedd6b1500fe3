"""Package metadata and installation.

A plain ``setup.py`` (no pyproject) on purpose: the offline environment
lacks the ``wheel`` package, so PEP 517/660 editable installs cannot build
an editable wheel.  Either path works depending on the environment::

    pip install -e .            # wherever the wheel package is available
    python setup.py develop     # offline/no-wheel environments

After either, ``import repro`` and the ``repro`` CLI work without
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-pga-shop-scheduling",
    version="1.0.0",
    description=(
        "Reproduction of 'A Survey on Parallel Genetic Algorithms for "
        "Shop Scheduling Problems' (Luo & El Baz, IPPS 2018): serial, "
        "master-slave, island, cellular and hybrid GAs with vectorized "
        "batch evaluation"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=1.22"],
    extras_require={
        # networkx DiGraph exports for analysis; no solver path needs them
        "graph": ["networkx"],
        "test": ["pytest", "pytest-benchmark", "hypothesis", "networkx"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
    ],
)
