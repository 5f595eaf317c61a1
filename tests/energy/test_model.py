"""Energy model and account tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.energy import EnergyAccount, EnergyModel


class TestCharging:
    def test_charge_raw(self):
        account = EnergyAccount()
        account.charge("host", 100.0)
        account.charge("host", 50.0)
        assert account.by_category()["host"] == 150.0
        assert account.total_nj == 150.0

    def test_charge_power_uses_w_equals_nj_per_ns(self):
        account = EnergyAccount()
        account.charge_power("pe_compute", watts=2.0, duration_ns=1_000.0)
        assert account.total_nj == 2_000.0

    def test_charge_bytes_is_picojoules(self):
        account = EnergyAccount()
        account.charge_bytes("pcie", pj_per_byte=10.0, size=1_000)
        assert account.total_nj == pytest.approx(10.0)

    def test_negative_charges_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.charge("x", -1.0)
        with pytest.raises(ValueError):
            account.charge_power("x", 1.0, -1.0)
        with pytest.raises(ValueError):
            account.charge_bytes("x", 1.0, -1)

    @given(pj_per_byte=st.floats(min_value=0.0, max_value=1e3,
                                 allow_nan=False),
           sizes=st.lists(st.integers(min_value=0, max_value=4096),
                          max_size=40),
           before=st.sampled_from([None, 0.1, 1e6 / 3]))
    def test_charge_bytes_each_equals_one_charge_per_size(
            self, pj_per_byte, sizes, before):
        account, reference = EnergyAccount(), EnergyAccount()
        if before is not None:
            for ledger in (account, reference):
                ledger.charge("storage", before)
        account.charge_bytes_each("storage", pj_per_byte, sizes)
        for size in sizes:
            reference.charge_bytes("storage", pj_per_byte, size)
        # Exactly the same float, not a rounding of it.
        assert account.by_category() == reference.by_category()

    def test_charge_bytes_each_of_no_sizes_creates_no_category(self):
        account = EnergyAccount()
        account.charge_bytes_each("storage", 7.0, [])
        assert account.by_category() == {}

    def test_charge_bytes_each_rejects_negative_before_charging(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.charge_bytes_each("storage", 7.0, [32, -1])
        assert account.by_category() == {}

    def test_total_mj_scale(self):
        account = EnergyAccount()
        account.charge("pram", 2e6)
        assert account.total_mj == pytest.approx(2.0)


class TestModelDefaults:
    def test_pram_write_energy_exceeds_read(self):
        model = EnergyModel()
        assert model.pram_set_pj_per_byte > model.pram_read_pj_per_byte * 10

    def test_pram_standby_far_below_dram_background(self):
        # The headline DRAM-less energy story: PRAM needs no refresh.
        model = EnergyModel()
        assert model.pram_idle_w < model.accel_dram_background_w / 10

    def test_pe_power_states_ordered(self):
        model = EnergyModel()
        assert model.pe_sleep_w < model.pe_idle_w < model.pe_active_w

    def test_flash_program_exceeds_read(self):
        model = EnergyModel()
        assert model.flash_program_nj_per_page > model.flash_read_nj_per_page
