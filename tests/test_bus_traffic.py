"""SPI and I2C traffic of the shipped suites, and their transport log,
pinned by digest.

The buses keep no record of what they carry, so this test records it: it
wraps SpiBus.transfer and I2cBus.write_then_read, as the work-count tests
wrap functions, and notes each call's sim time, the bytes in and the bytes
out. One run is the five suites on one rig, clean or with one shipped
fault armed. Each run is pinned by its number of calls, the clock at its
end and one sha256 of its records, so a byte that moves, or a call that
moves in time or order, moves the digest. The session's transport log,
every line either controller sent or received, is pinned the same way. A
change that moves one updates the pin and names the records that moved.
"""

import hashlib

import pytest

from double_harness import bus, harness, suites


@pytest.fixture
def five_suite_run(monkeypatch):
    """run(fault) runs the five suites on a new rig and returns the rig and
    its records: ("spi", now, mosi, miso) per SPI transfer and ("i2c", now,
    addr, written, read) per I2C transaction. A call that raises leaves
    no record."""
    records = []
    clock = []  # the scheduler of the rig being run
    transfer, write_then_read = bus.SpiBus.transfer, bus.I2cBus.write_then_read

    def record(entry, call, *args):
        out = call(*args)
        records.append((*entry, out))
        return out

    def spi_transfer(spi, mosi):
        return record(("spi", clock[0].now, bytes(mosi)), transfer, spi, mosi)

    def i2c_write_then_read(i2c, addr, wbytes, nread):
        entry = ("i2c", clock[0].now, addr, bytes(wbytes))
        return record(entry, write_then_read, i2c, addr, wbytes, nread)

    monkeypatch.setattr(bus.SpiBus, "transfer", spi_transfer)
    monkeypatch.setattr(bus.I2cBus, "write_then_read", i2c_write_then_read)

    def run(fault):
        records.clear()
        rig = suites.build_virtual_rig(fault)
        clock[:] = [rig.scheduler]
        try:
            for suite in suites.SUITES.values():
                harness.run_suite(suite, rig.session)
        finally:
            rig.close()
        return rig, list(records)

    return run


# Per run: (calls, scheduler.now at its end, sha256 of the repr of its records).
# drop_first_byte corrupts what the SPI master hands back, after the bus, and
# ble_init_delay_ms only ends the run later, so their records are the clean ones.
PINNED = {
    None: (7, 3_652_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
    "period_skew_ms": (7, 3_652_508, "b82fa4b61f20dd8f96e95f469fa275872900bef20d338239475666e17b869e43"),
    "swap_bcd_nibbles": (7, 3_652_500, "e70dfc1dde0ca59a0abe9caa5e6965e818c70e104accf49d0d613e2be4757f31"),
    "omit_checksum": (7, 3_654_500, "7a222040163a133e4b63ca2f37d8b0dea2cd17b55c936e4c85d549731a563098"),
    "drop_first_byte": (7, 3_652_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
    "ble_init_delay_ms": (7, 3_658_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
}


def test_the_pins_cover_the_clean_run_and_each_shipped_fault():
    assert list(PINNED) == list(LOG_PINNED) == [None, *suites.SHIPPED_FAULTS]


@pytest.mark.parametrize("fault", list(PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_spi_and_i2c_traffic(five_suite_run, fault):
    rig, records = five_suite_run(fault)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (len(records), rig.scheduler.now, digest) == PINNED[fault]


# Per run: (log entries, scheduler.now at its end, sha256 of the repr of the
# list of each entry's (device, direction, line, sim_ms)).
LOG_PINNED = {
    None: (262, 3_652_500, "4711a4a1d2e5d6468eedb5622d7e505c2abb4bf632986c9f1daea2eca05004e0"),
    "period_skew_ms": (262, 3_652_508, "c9ab7ee61d3bf68d417041e23393e8bbb1597f4d8b82b9c485760fdfc62b4aec"),
    "swap_bcd_nibbles": (262, 3_652_500, "790f57b6749a0a75d9ad5805f7dee6c9eb119efae25845d83a578e16e47d9bdb"),
    "omit_checksum": (258, 3_654_500, "fa60e2851b8c71225e612e51bf5321364a828cae5b2cbedcacc501319f748dc8"),
    "drop_first_byte": (262, 3_652_500, "7e9a039522238b8f14c64626df233ea862d46b6ddf3ee22de65e3825fc0d6dd0"),
    "ble_init_delay_ms": (257, 3_658_500, "44c06a09c499bb58427e539a39ee546afb083d2c025911a3230ee86ef5a4b489"),
}


@pytest.mark.parametrize("fault", list(LOG_PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_transport_log(five_suite_run, fault):
    rig, _ = five_suite_run(fault)
    lines = [entry[1:] for entry in rig.session.log.entries]  # all but the sequence number
    digest = hashlib.sha256(repr(lines).encode()).hexdigest()
    assert (len(lines), rig.scheduler.now, digest) == LOG_PINNED[fault]


def test_the_clean_records_read_as_the_suites_drive_the_buses(five_suite_run):
    """The RTC suite's five transactions, all at the RTC double's address,
    then the SPI suite's write, which clocks back zeros, and its read."""
    _, records = five_suite_run(None)
    assert [record[0] for record in records] == ["i2c"] * 5 + ["spi"] * 2
    assert {record[2] for record in records[:5]} == {0x68}
    assert records[5][2:] == (bytes(suites.SPI_TX_DATA), bytes(len(suites.SPI_TX_DATA)))
    assert records[6][2:] == (bytes(len(suites.SPI_PRELOAD)), bytes(suites.SPI_PRELOAD))
