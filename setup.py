from setuptools import find_packages, setup

setup(
    name="ic-cache-repro",
    version="0.2.0",
    description=(
        "Reproduction of IC-Cache (conf_sosp_YuGSTSZK0LC25): efficient LLM "
        "serving via in-context caching — example selection, learned "
        "routing, cache management, and a batched retrieval engine "
        "over a discrete-event serving simulator."
    ),
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
