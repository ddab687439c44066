import dataclasses
import random

import pytest

from cudfsolve import (
    Clause,
    Constraint,
    Formula,
    RelOp,
    VersionBound,
    generate_instance,
    make_document,
    parse_document,
)

# A small upgrade scenario exercising most of the format: multiple
# versions, a virtual feature, chained conflicts, a recommendation,
# and a request that both installs and upgrades.  Three packages are
# installed; upgrading `conf` past version 1 forces its old version
# out, and `inst` can only reach version 3 by trading `conf` for the
# `feat` provider.
UPGRADE_SCENARIO = """\
package: inst
version: 3
conflicts: conf < 3

package: inst
version: 2
depends: dep < 2

package: inst
version: 1
depends: dep

package: conf
version: 2

package: conf
version: 1
installed: true

package: feat
version: 1
provides: conf = 3

package: dep
version: 3
conflicts: dep
recommends: recomm

package: dep
version: 2
conflicts: dep < 2

package: dep
version: 1
installed: true

package: recomm
version: 1
conflicts: option

package: option
version: 1
depends: avail

package: avail
version: 1
installed: true

request:
install: inst
upgrade: conf > 1
"""


@pytest.fixture(scope="session")
def scenario_text():
    return UPGRADE_SCENARIO


@pytest.fixture()
def scenario_doc():
    return parse_document(UPGRADE_SCENARIO)


def _upgrade_heavy(seed, packages=30):
    rng = random.Random(seed)
    doc = generate_instance(seed, packages=packages, installed_fraction=0.5, provides_density=0.7)
    names = sorted({desc.name for desc in doc} | {f"virt{i}" for i in (1, 2)})

    def atom(op_pool):
        name = rng.choice(names)
        if rng.random() < 0.4:
            return Constraint(name)
        return Constraint(name, VersionBound(rng.choice(op_pool), rng.randint(1, 3)))

    descs = [
        dataclasses.replace(
            desc, provides=Formula(desc.provides.clauses + (Clause((atom([RelOp.EQ]),)),))
        )
        if rng.random() < 0.4
        else desc
        for desc in doc
    ]
    extra = tuple(
        Clause(tuple(atom(list(RelOp)) for _ in range(rng.randint(1, 2))))
        for _ in range(rng.randint(1, 2))
    )
    upgrade = Formula(doc.request.upgrade.clauses + extra)
    return make_document(descs, dataclasses.replace(doc.request, upgrade=upgrade))


@pytest.fixture(scope="session")
def upgrade_heavy_docs():
    """Generated documents whose upgrade clauses reach provided names.

    ``generate_instance`` upgrades only installed real names, which no
    other package provides.  These add a provide of any name, pinned or
    open-ended, to two in five packages, and upgrade clauses over every
    name, some of them disjunctions or bounded.
    """
    return [_upgrade_heavy(seed) for seed in range(40)]
