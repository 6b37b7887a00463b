"""Every benchmark op's output at seed 1, pinned by its sha256.

perfbench/workloads.py builds the three benchmark workloads from dirtail's
public surface.  Here each op runs at full scale and seed 1, in process, and
its output text must hash to the pinned digest; an op that fails must fail
with the pinned error and message.  A change to the random stream or to any
value an op prints fails here, and a change that means to move them re-pins
the table and says so.  The bits depend on the numpy and scipy builds, so
the test runs only on the versions the table was taken with.
"""

import hashlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest
import scipy

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
#: the numpy and scipy versions the digests were taken with
PINNED_VERSIONS = ("2.4.6", "1.17.1")

#: op name -> sha256 of its output, or (error, detail) for an op that fails
DIGESTS = {
    "M1": "dd4106128efe868d1cbd9b192292c65c6699b23213d29d26023ed8df9f938931",
    "M2": "ffae9b01976edfafd4dd9124ee688cc213aa071d20dc0b08880e46f897cf11b0",
    "M3": "751ee3874b15635a7ad387caf6526c10da25d2846f08a600f697388c3d3c1ce4",
    "M4": "bdbff234901b939a75a1a840e161ff8022a645728ceba53c479c9de5aa2ee322",
    "M5": "6a729bf38c82c2eabf1154234ab42c9d075ae0e4ced3e64058d4fabf05dd7a7d",
    "M6": "5557a2ad3dfa1db6899591b5cac1761587e9f820a707cfa6509bb13437e53ee0",
    "M7": ("exit 3", "dirtail: numeric failure: simplex row sum underflowed to 0 at "
                     "alpha=[0.001, 0.001]: every standard_gamma draw of a row was 0 "
                     "(alpha too small to sample)"),
    "M8": "542a8b06599a335f0e76850f9e8142483f1feb08b79e4d4849dd29f412a006e0",
    "Q1": "5303584932447ab258f04b1507ab42d6a47ce95d7a22d3fbecc3bfdfe7b903da",
    "Q2": "f3ec6da12fb33fd77115f1604721b63b362b4a81086041c89596cce80c0c2ee5",
    "Q3": "2fbccf562b8621bd99d9be337328a00a199f5d34058ce7ec76c17b22366ffcad",
    "Q4": "a132c0ac032a7ee7bb36ef12b61ac273e9b5398f27326eddbca42bc81ffdbffb",
    "Q5": "532b9c5633487352eca4074f117dc0a47b4f992af6cdb09f008bc21ac0ee9643",
    "Q6": "e9e6e7b413afa70f9aa9d2ba5f9bd0795017e661e79445c9986adc8b6600a047",
    "Q7": "9a6bbc1da2fc2c4a285c2526d6b0405ed920228baa8492608b590e7d6ecac5cd",
    "Q8a": "2030f6ca052d76b76a9d40022c984fda5e4803c0fb2e0d7e83b2bd266757b4f6",
    "Q8b": "6e369f0ff1a7cdd4ef560926e1fb14522d3b13de309039906ec9a04fb500d668",
    "a1.approx": "34ee4270064defbcb8f09de40e912cc4a81dcabaf216a4155b811b1c3f679ae4",
    "a1.var-es": "0b86e65ca4c8cbe52e26befc268c3c7534ef012ae89f1c8fe4ae9e0ae3ff2dac",
    "a1.gumbel_ratio": "e75053ff487c02bceff3b465b980b2e54797761897d23db83a350b72657a6c75",
    "a1.davis_resnick": "6256a2dafdc1e85ede89caefcb1723b55a969838efd7aa65c8b82406e4316765",
    "a1.norming": "c9c8fff944b8e4c4a49829f7453292df451180b1cd3e6e48c705be1c3b4f3319",
    "a2.approx": "423df015e673f3092c9442c5ce49a1f672fac2ceb19f2e32ebae46c0db559e8d",
    "a2.var-es": "6712f7eaf0df867b90587c28e44e51cc25d473ef551e9c200ab614ebec4f7223",
    "a2.gumbel_ratio": "b1eb562c71ff98ce52f6ffa18058aa96479ee78917ffda182509176158037585",
    "a2.davis_resnick": "e0631893f90c815c9b5308167cc53065b11ee8d12681de98fa219221652aa275",
    "a2.norming": "f22da65719cdb841fb371216fb79c40f5ed2b544e70318f7f1078606050460df",
    "a3.approx": "7a117667ce74aea5bef4185a24991499c7848e255f58c5428aa94089a8f23be3",
    "a3.gumbel_ratio": "8d72a675e4dae7a1c7144966cbec53c8396a8499d941bc9af82b0ad52467ba41",
    "a3.davis_resnick": "217cca7e9ad83c044983f7269b0405bd9a3ee338ccb2a1d6b707b2fe84309084",
    "a3.norming": "a786c183830d795dcf99c138ef9f6dae284df7ca59e8741202fea14944d8418d",
    "b1.approx": "1d4ecbc6818b2556a5669589b63f26a23b58329ff40507d4598654d2709509a2",
    "b1.var-es": "6b8f750589de388eb1631638b328793c47ca83bdb10774f77883805b6595d036",
    "b1.gumbel_ratio": "3ef7d7bd4e0a2a236ad8f6a39d6d43b244a2b05ce228a06a397f887b36063fc7",
    "b1.davis_resnick": "0a08ff7bbaef05a2c4dbcd36356bfec5e02f03a05cc793bef0614d52ee44a577",
    "b1.norming": "ee347719f50daa4795874bec95e9f142476eca9de410acd5cd6b4901f5472c26",
    "b2.approx": "73044e39471fd4a6b1f2347bc26cdca75764a10f50e701cb6e4a11adb226e987",
    "b2.var-es": "541ead8ed285ccb89ccaec9d1e06da342549365e85b3e9d11f4ea07b1d25330f",
    "b2.gumbel_ratio": "566a9022369bfd0196a4329f935b808e60d6c6f557de2e87cfa827e836a281e7",
    "b2.davis_resnick": "07d8f760713e38e96603543effb894e1bead09162b1ee7449986a54c0df9baf8",
    "b2.norming": "b40fde2f350bb0206974a9add407489ee5dc792c1181911637d36ebdb42a3340",
    "c1.approx": "20a1e4cb1aa89805c5df858a61cfbb46bace4b78508d36db0e5c49855e91e586",
    "c1.var-es": "73f64f1bc5cdf8273db0e8799dd0bc3f2ba4d07586823606f78c26f5c8b97a0b",
    "c1.constants": "6b4a84e5385c7a9940fc6301072fa9ed25f452689db17cd0d1387623d0d37a22",
    "c1.gumbel_ratio": "b73e66fe2ea6d73901852c2fbfbd53c69732132c51a6c7d3a7f6ab3e2a2d521e",
    "c1.davis_resnick": "6d3919a7cf8c115b4c451cbdb0935a2ff2d7a5b72b7b0aeaf211e3e0c7836f6f",
    "c1.norming": "713e89698973080bb78a2fbc54feaf3a3ffabf02c6703aa84bfacdba7f61e00b",
    "c2.approx": "1f4ac86b131aaa19077c4e5ec3e3faf879133c0bbce3d0906f07305a11ba7caf",
    "c2.var-es": "0d309ce6d2b1aad4da15d64ad7bffe402deb6cb1ee5e58705c748ab284bc0e52",
    "c2.constants": "f89a61811f1fbb20abeb76aae2bea3d34fe0a1e321e39a5a8cf02e8d4c5497e9",
    "c2.gumbel_ratio": "7d6a599cbaa3ac4c473d7e98aae1ec4ef99e5614a7d182718f1e237af69c9624",
    "c2.davis_resnick": "11e2ecdca61dde72ec6fd088cbccd637ecea4ecdb8ff7ca7139f663a02aff4d8",
    "c2.norming": "c7740d8fd3cba975cde91c1457960fdaf72d0fc869985456300604b14013873f",
    "c3.approx": "b2a68ce344729021daad8004277ebd44c7d070d1ef32af4b138d652a92ae1290",
    "c3.constants": "395137fd1c7c35bfc399a3293052be669d5798f8118b6af351d5793a2597e1b6",
    "c3.gumbel_ratio": "c08ab2191d1d5555fe896530efcd73181fdee7437d08e84446735287097df3d5",
    "c3.davis_resnick": "22a2765eddb6aa492dd1078372b8f98a9b9f9cea67c66aaac6cfa739836bcaa1",
    "c3.norming": "35b41e1ac43f49368881212eb40b847ab836ac824b98f1869c908f1f231cb009",
    "e1.approx": "a34b4de892960636a8ff4eb4aaa1450dd56ac057708d83d8ddf7bee53734989a",
    "e1.weibull_ratio": "9865b986b10addb6248f6c4bfc46211e3994552670bf37413ac71e3ac49caac1",
    "e2.approx": ("exit 2", "dirtail: threshold must lie in (0, scale) for an endpoint-1 "
                            "aggregate, got 1.0"),
    "e2.weibull_ratio": "a16cefe7bc7db365524f9379b4aa321cebf8f27c225288e9c51e791342aa11d9",
    "p0.999999.approx": "50e10a9358f405d8898e0a7f8ef1ebf1abf89ae2335f032d0f6239b1efe3ddb2",
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif((np.__version__, scipy.__version__) != PINNED_VERSIONS,
                    reason="the digests are taken with numpy 2.4.6 and scipy 1.17.1")
def test_every_op_output_is_pinned(tmp_path):
    workloads = _load_workloads()
    got = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build_ops(workload, 1)
        paths = workloads.write_configs(ops, str(tmp_path / workload))
        for op in ops:
            result = workloads.run_op(op, paths)
            got[op.name] = (hashlib.sha256(result.output.encode()).hexdigest() if result.ok
                            else (result.error, result.detail))
    assert got == DIGESTS
