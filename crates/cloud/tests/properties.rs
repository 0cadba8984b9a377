//! Property-based tests for the vehicular-cloud wire format and its
//! request validation.

use bytes::Bytes;
use proptest::prelude::*;
use velopt_cloud::protocol::{read_frame, write_frame, TripRequest, WaveTag};
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_queue::QueueParams;
use velopt_road::CorridorTemplate;

proptest! {
    /// Requests over arbitrary generated corridors round-trip losslessly.
    #[test]
    fn trip_request_round_trip(
        seed in any::<u64>(),
        departure in 0.0f64..600.0,
        rate in 10.0f64..1500.0,
        queue_aware in any::<bool>(),
    ) {
        let road = CorridorTemplate::default().generate(seed).unwrap();
        let rates = vec![VehiclesPerHour::new(rate); road.traffic_lights().len()];
        let req = TripRequest {
            road,
            departure: Seconds::new(departure),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware,
        };
        let mut bytes = req.encode();
        let back = TripRequest::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, req);
        prop_assert!(bytes.is_empty());
    }

    /// Arbitrary frames round-trip through the stream helpers.
    #[test]
    fn frame_round_trip(tag in any::<u8>(), payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (t, p) = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(t, tag);
        prop_assert_eq!(&p[..], &payload[..]);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Garbage bytes never panic the request decoder (errors are fine).
    #[test]
    fn decoder_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = Bytes::from(garbage);
        let _ = TripRequest::decode(&mut bytes);
    }

    /// Truncating a valid request at any point yields an error, not a panic
    /// or a silently-wrong value.
    #[test]
    fn truncation_is_detected(cut_fraction in 0.01f64..0.99) {
        let req = TripRequest::us25_at(30.0);
        let encoded = req.encode();
        let cut = ((encoded.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < encoded.len());
        let mut truncated = encoded.slice(0..cut);
        prop_assert!(TripRequest::decode(&mut truncated).is_err());
    }
}

proptest! {
    /// Wave frames round-trip losslessly, and splitting the tag off leaves
    /// exactly the `REQ_TRIP` payload: the plan-cache and coalesce key.
    #[test]
    fn wave_frame_round_trip(
        id in any::<u64>(),
        size in 1u32..=u32::MAX,
        seed in any::<u64>(),
        departure in 0.0f64..600.0,
        rate in 10.0f64..1500.0,
    ) {
        let road = CorridorTemplate::default().generate(seed).unwrap();
        let rates = vec![VehiclesPerHour::new(rate); road.traffic_lights().len()];
        let trip = TripRequest {
            road,
            departure: Seconds::new(departure),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        };
        let wave = WaveTag { id, size };
        let encoded = wave.encode_trip(&trip);
        prop_assert_eq!(encoded.len(), WaveTag::ENCODED_LEN + trip.encode().len());
        let mut bytes = encoded;
        prop_assert_eq!(WaveTag::split(&mut bytes).unwrap(), wave);
        prop_assert_eq!(bytes.clone(), trip.encode());
        prop_assert_eq!(TripRequest::decode(&mut bytes).unwrap(), trip);
        prop_assert!(bytes.is_empty());
    }

    /// Garbage never panics the wave decoders, and a zero-member wave is
    /// always refused.
    #[test]
    fn wave_decoder_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = Bytes::from(garbage);
        if let Ok(wave) = WaveTag::split(&mut bytes) {
            prop_assert!(wave.size >= 1);
            let _ = TripRequest::decode(&mut bytes);
        }
    }

    /// A trip whose departure or any arrival rate is NaN or infinite fails
    /// validation, whatever the other fields hold.
    #[test]
    fn non_finite_trip_fields_are_refused(
        seed in any::<u64>(),
        bad in 0usize..4,
        in_departure in any::<bool>(),
    ) {
        let road = CorridorTemplate::default().generate(seed).unwrap();
        let lights = road.traffic_lights().len();
        let mut trip = TripRequest {
            road,
            departure: Seconds::new(30.0),
            rates: vec![VehiclesPerHour::new(400.0); lights],
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        };
        prop_assert!(trip.validated().is_ok());
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][bad];
        if in_departure || lights == 0 {
            trip.departure = Seconds::new(bad);
        } else {
            trip.rates[(seed as usize) % lights] = VehiclesPerHour::new(bad);
        }
        prop_assert!(trip.validated().is_err());
    }
}
