"""Firmware update resumption under injected brownouts.

A 64 KiB image is streamed in 1 KiB chunks to the inactive slot of a
dual-slot device.  Brownouts are injected mid-transfer; the persisted
progress marker lets every retry resume at the interrupted chunk, and
the active image stays untouched until the new slot verifies.
"""

from powergap.ota import OtaDevice, image_digest, run_ota_transfer

IMAGE = bytes((i * 13 + 7) % 256 for i in range(64 * 1024))


def main() -> None:
    for faults in ([], [10], [10, 11, 40]):
        device = OtaDevice(active_image=b"factory firmware")
        result = run_ota_transfer(device, IMAGE, chunk_size=1024, faults=faults)
        device.on_reboot()  # apply the pending slot swap
        fresh = device.active_hash() == image_digest(IMAGE)
        print(
            f"faults at {str(faults or 'none'):<12}: completed={result.completed}  "
            f"chunk attempts={result.chunk_attempts}  "
            f"resumptions={result.resumptions}  new image active={fresh}"
        )


if __name__ == "__main__":
    main()
